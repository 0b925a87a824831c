// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a monotone event queue, cancellable timers, and the
// probability distributions used by the MemCA queueing and contention
// models.
//
// All randomness flows through an injected *rand.Rand so that every
// experiment is reproducible from a seed, and the engine never consults
// wall-clock time.
//
// The event queue is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990),
// which fits because virtual time never runs backwards. Its invariants:
//
//   - Every queued event's time is at or after last, the time of the most
//     recent minimum; an event sits in bucket bits.Len64(at ^ last), so
//     bucket 0 holds exactly the events due at last.
//   - Bucket 0 is a FIFO in seq (scheduling) order, so events pop in the
//     total (at, seq) order and same-time events fire in scheduling order.
//   - Cancellation is lazy: Cancel flags the event's slot and the pop
//     discards it. A slot's generation counter moves on every pop, so a
//     handle whose generation matches the slot's is still queued and
//     stale handles are inert.
//
// The hot path is allocation-free in steady state: events live by value
// in a slot table, the buckets and the free list are intrusive lists
// threaded through it, and cancellation handles are value types. Model
// code that needs per-event context without allocating a closure uses the
// Actor scheduling path (ScheduleCall).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Actor is the allocation-free callback path: instead of capturing state
// in a closure (one heap allocation per event), model code implements Act
// on a long-lived object and schedules it with ScheduleCall, passing the
// per-event context as arg. Pointer-shaped args (e.g. *Request) convert to
// `any` without allocating.
type Actor interface {
	// Act handles one fired event. arg is whatever was passed to
	// ScheduleCall for this event.
	Act(arg any)
}

// Event is a cancellation handle for a scheduled callback, returned by
// Schedule and friends. It is a small value type: copy it freely. The zero
// Event is inert — Cancel and Canceled on it are no-ops — so a struct
// field holding "no event" needs no pointer or sentinel.
type Event struct {
	e   *Engine
	id  int32
	gen uint32
	at  time.Duration
}

// Time reports the virtual time at which the event fires (or would have
// fired, if canceled).
func (ev Event) Time() time.Duration { return ev.at }

// Cancel prevents the event's callback from running. Canceling an event
// that already fired or was already canceled is a no-op.
func (ev Event) Cancel() {
	if ev.e != nil {
		ev.e.cancel(ev.id, ev.gen)
	}
}

// Canceled reports whether Cancel was called on the event. The answer
// stays valid while the event is queued and through the pop that discards
// it; once the engine reuses the underlying slot for a later event the
// stale handle reports false.
func (ev Event) Canceled() bool {
	if ev.e == nil {
		return false
	}
	return ev.e.canceled(ev.id, ev.gen)
}

// nilSlot ends a bucket or free list.
const nilSlot int32 = -1

// buckets is the radix heap's bucket count: one per possible
// bits.Len64(at ^ last), 0 through 64.
const buckets = 65

// slot holds one event by value. Exactly one of fn and actor is set while
// the event is queued. next links the slot into its bucket while queued
// and into the free list while free; gen distinguishes reuses of the same
// id so stale handles are inert.
type slot struct {
	at    time.Duration
	seq   uint64
	fn    func()
	actor Actor
	arg   any
	next  int32
	gen   uint32

	canceled bool
	// lastCanceled remembers whether the generation that most recently
	// left the queue had been canceled, so Canceled() keeps answering
	// correctly on a handle whose event was just discarded.
	lastCanceled bool
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; a simulation runs on one goroutine and models concurrency
// through events, which is both faster and fully deterministic.
type Engine struct {
	now time.Duration
	seq uint64
	rng *rand.Rand

	slots []slot
	free  int32 // head of the free slot list, reused LIFO

	// last is the radix heap's reference key: the time of the most recent
	// minimum, never after now between calls. head[b] starts bucket b's
	// list; tail0 ends bucket 0's, which must stay in seq order. Bit b-1
	// of nonEmpty is set iff bucket b > 0 holds an event.
	last     time.Duration
	head     [buckets]int32
	tail0    int32
	nonEmpty uint64
	pending  int

	// processed counts events fired since construction; useful for
	// progress accounting and loop-guard tests.
	processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return NewEngineWithRand(rand.New(rand.NewSource(seed)))
}

// NewEngineWithRand returns an engine using the provided random source.
// The engine takes ownership of rng; callers must not share it.
func NewEngineWithRand(rng *rand.Rand) *Engine {
	e := &Engine{rng: rng, free: nilSlot, tail0: nilSlot}
	for b := range e.head {
		e.head[b] = nilSlot
	}
	return e
}

// Reset returns the engine to the state NewEngine(seed) builds while
// keeping its slot table, so a recycled engine schedules without growing
// it. Every slot goes back on the free list with its callback and arg
// references dropped and its generation moved on, so handles from the
// earlier run stay inert: Cancel on one touches no new event, and
// Canceled reports false. The random source is reseeded in place;
// rng.Seed(seed) gives the stream of rand.New(rand.NewSource(seed)).
func (e *Engine) Reset(seed int64) {
	e.now, e.seq, e.last = 0, 0, 0
	e.pending, e.processed = 0, 0
	e.rng.Seed(seed)
	for b := range e.head {
		e.head[b] = nilSlot
	}
	e.tail0 = nilSlot
	e.nonEmpty = 0
	// Thread the free list so ids come back in ascending order, the order
	// a fresh engine appends them in.
	e.free = nilSlot
	for id := int32(len(e.slots)) - 1; id >= 0; id-- {
		s := &e.slots[id]
		s.fn, s.actor, s.arg = nil, nil, nil
		s.canceled, s.lastCanceled = false, false
		s.gen++
		s.next = e.free
		e.free = id
	}
}

// Now returns the current virtual time (time since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's random source. Model components should draw all
// randomness from it to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of events still queued (including canceled
// events not yet discarded).
func (e *Engine) Pending() int { return e.pending }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (fire at the current time, after already-queued events at that time).
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	return e.push(e.now+delay, fn, nil, nil)
}

// At queues fn to run at absolute virtual time t. Scheduling in the past is
// clamped to the present.
func (e *Engine) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	return e.push(t, fn, nil, nil)
}

// ScheduleCall queues actor.Act(arg) to run after delay. Unlike Schedule
// it performs no heap allocation: the actor is a long-lived object and arg
// carries the per-event context (keep it pointer-shaped or a small integer
// to stay allocation-free across the `any` conversion).
//
//memca:hotpath
func (e *Engine) ScheduleCall(delay time.Duration, actor Actor, arg any) Event {
	if actor == nil {
		panic("sim: ScheduleCall called with nil actor")
	}
	if delay < 0 {
		delay = 0
	}
	return e.push(e.now+delay, nil, actor, arg)
}

// push takes a slot, fills it, and links it into its bucket.
func (e *Engine) push(t time.Duration, fn func(), actor Actor, arg any) Event {
	if t < e.now {
		t = e.now
	}
	id := e.free
	if id != nilSlot {
		e.free = e.slots[id].next
	} else {
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.at, s.seq = t, e.seq
	s.fn, s.actor, s.arg = fn, actor, arg
	s.canceled = false
	e.seq++
	e.pending++
	e.link(id)
	return Event{e: e, id: id, gen: s.gen, at: t}
}

// link files slot id into the bucket its time selects relative to last.
// A bucket-0 event is due at last; it is appended, which keeps bucket 0 in
// seq order for pushes (the newest seq is the largest).
//
//memca:hotpath
func (e *Engine) link(id int32) {
	s := &e.slots[id]
	b := bits.Len64(uint64(s.at ^ e.last))
	if b == 0 {
		s.next = nilSlot
		if e.head[0] == nilSlot {
			e.head[0] = id
		} else {
			e.slots[e.tail0].next = id
		}
		e.tail0 = id
		return
	}
	s.next = e.head[b]
	e.head[b] = id
	e.nonEmpty |= 1 << (b - 1)
}

// linkBySeq inserts slot id into bucket 0 at its seq position. A refill
// uses it because the events it moves arrive in bucket-list order; the
// head and tail checks make already sorted and reverse-sorted runs linear.
//
//memca:hotpath
func (e *Engine) linkBySeq(id int32) {
	s := &e.slots[id]
	h := e.head[0]
	if h == nilSlot || e.slots[e.tail0].seq < s.seq {
		e.link(id)
		return
	}
	if s.seq < e.slots[h].seq {
		s.next = h
		e.head[0] = id
		return
	}
	p := h
	for n := e.slots[p].next; e.slots[n].seq < s.seq; n = e.slots[p].next {
		p = n
	}
	s.next = e.slots[p].next
	e.slots[p].next = id
}

// refill makes bucket 0 non-empty when the earliest queued event is due at
// or before until, and reports whether it is. The queue must not be
// empty. When the earliest event is later than until, last stays where it
// is, so the clock may still stop at until and accept pushes there.
//
//memca:hotpath
func (e *Engine) refill(until time.Duration) bool {
	if e.head[0] != nilSlot {
		return e.last <= until
	}
	b := bits.TrailingZeros64(e.nonEmpty) + 1
	list := e.head[b]
	minAt := e.slots[list].at
	for id := e.slots[list].next; id != nilSlot; id = e.slots[id].next {
		if at := e.slots[id].at; at < minAt {
			minAt = at
		}
	}
	if minAt > until {
		return false
	}
	// Every event of bucket b moves to a lower bucket: relative to the new
	// last they share all bits above b-1. Later buckets stay valid.
	e.last = minAt
	e.head[b] = nilSlot
	e.nonEmpty &^= 1 << (b - 1)
	for id := list; id != nilSlot; {
		next := e.slots[id].next
		if e.slots[id].at == minAt {
			e.linkBySeq(id)
		} else {
			e.link(id)
		}
		id = next
	}
	return true
}

// cancel marks the event queued under (id, gen) as canceled. The entry
// stays queued and is discarded when popped (lazy cancellation keeps the
// Pending semantics of the original engine).
func (e *Engine) cancel(id int32, gen uint32) {
	if int(id) >= len(e.slots) {
		return
	}
	if s := &e.slots[id]; s.gen == gen {
		s.canceled = true
	}
}

// canceled reports the cancellation state for handle (id, gen).
func (e *Engine) canceled(id int32, gen uint32) bool {
	if int(id) >= len(e.slots) {
		return false
	}
	s := &e.slots[id]
	switch {
	case s.gen == gen:
		return s.canceled
	case s.gen == gen+1:
		return s.lastCanceled
	default:
		return false
	}
}

// Step fires the next event, advancing the clock to its timestamp. It
// returns false when no runnable event remains.
//
//memca:hotpath
func (e *Engine) Step() bool {
	for e.pending > 0 {
		e.refill(math.MaxInt64)
		id := e.head[0]
		s := &e.slots[id]
		e.head[0] = s.next
		e.pending--
		at, fn, actor, arg, canceled := s.at, s.fn, s.actor, s.arg, s.canceled
		// Release the slot before firing: the callback may schedule into
		// it, and the queue must not retain callbacks or args.
		s.fn, s.actor, s.arg = nil, nil, nil
		s.lastCanceled = canceled
		s.canceled = false
		s.gen++
		s.next = e.free
		e.free = id
		if canceled {
			continue
		}
		e.now = at
		e.processed++
		if fn != nil {
			fn()
		} else {
			actor.Act(arg)
		}
		return true
	}
	// Drained (perhaps by discarding canceled events due after now):
	// re-anchor so pushes at now land in the right bucket.
	e.last = e.now
	return false
}

// Run fires events until the clock would pass until, then sets the clock to
// exactly until. Events scheduled at until are fired.
func (e *Engine) Run(until time.Duration) {
	for e.pending > 0 && e.refill(until) {
		if !e.Step() {
			break
		}
	}
	if e.now < until {
		e.now = until
	}
}

// RunChecked is Run with a periodic interruption hook: after every
// checkEvery fired events it calls check and stops early — without
// advancing the clock to until — when check returns a non-nil error,
// returning that error. The hook must not touch the simulation (it runs
// between events), so the event sequence up to an interruption is exactly
// the sequence Run would have produced; a nil check or zero checkEvery
// degrades to plain Run.
func (e *Engine) RunChecked(until time.Duration, checkEvery uint64, check func() error) error {
	if check == nil || checkEvery == 0 {
		e.Run(until)
		return nil
	}
	var fired uint64
	for e.pending > 0 && e.refill(until) {
		if !e.Step() {
			break
		}
		fired++
		if fired%checkEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// RunAll fires every queued event. It guards against runaway simulations
// with maxEvents; a zero maxEvents means no limit.
func (e *Engine) RunAll(maxEvents uint64) error {
	return e.RunAllChecked(maxEvents, 0, nil)
}

// RunAllChecked is RunAll with the same periodic interruption hook as
// RunChecked.
func (e *Engine) RunAllChecked(maxEvents, checkEvery uint64, check func() error) error {
	fired := uint64(0)
	for e.Step() {
		fired++
		if maxEvents > 0 && fired > maxEvents {
			return fmt.Errorf("sim: exceeded %d events at t=%v", maxEvents, e.now)
		}
		if check != nil && checkEvery > 0 && fired%checkEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	return nil
}
