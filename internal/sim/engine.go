// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, cancellable timers, and the probability
// distributions used by the MemCA queueing and contention models.
//
// All randomness flows through an injected *rand.Rand so that every
// experiment is reproducible from a seed, and the engine never consults
// wall-clock time.
//
// The engine's hot path is allocation-free in steady state: events live by
// value in an index-addressed 4-ary min-heap, cancellation handles are
// value types addressing a generation-checked slot table, and freed slots
// are recycled through a free list. Model code that needs per-event
// context without allocating a closure uses the Actor scheduling path
// (ScheduleCall).
package sim

import (
	"fmt"
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

// event is one queued entry in the engine's heap, stored by value.
// Exactly one of fn and actor is set.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	actor Actor
	arg   any
	id    int32
}

// before is the heap order: (at, seq) ascending, so simultaneous events
// fire in scheduling order (deterministic FIFO tie-break). seq is unique,
// making the order total — heap arity therefore cannot change pop order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is the cancellation-table entry backing one event id. pos tracks
// the event's current heap index so Cancel is O(1); gen distinguishes
// reuses of the same id so stale handles are inert.
type slot struct {
	pos      int32 // heap index, -1 while free
	gen      uint32
	canceled bool
	// lastCanceled remembers whether the generation that most recently
	// left the heap had been canceled, so Canceled() keeps answering
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

	// heap is an index-addressed 4-ary min-heap of event values. 4-ary
	// beats binary here: pops dominate (every push is eventually popped),
	// and the shallower tree trades a few extra comparisons per level for
	// half the levels and better cache locality on the value slice.
	heap  []event
	slots []slot
	free  []int32 // free slot ids, reused LIFO

	// processed counts events fired since construction; useful for
	// progress accounting and loop-guard tests.
	processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// NewEngineWithRand returns an engine using the provided random source.
// The engine takes ownership of rng; callers must not share it.
func NewEngineWithRand(rng *rand.Rand) *Engine {
	return &Engine{rng: rng}
}

// Now returns the current virtual time (time since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's random source. Model components should draw all
// randomness from it to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of events still queued (including canceled
// events not yet discarded).
func (e *Engine) Pending() int { return len(e.heap) }

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

// push allocates a slot, appends the event, and restores the heap order.
func (e *Engine) push(t time.Duration, fn func(), actor Actor, arg any) Event {
	if t < e.now {
		t = e.now
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.canceled = false
	ev := event{at: t, seq: e.seq, fn: fn, actor: actor, arg: arg, id: id}
	e.seq++
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
	return Event{e: e, id: id, gen: s.gen, at: t}
}

// siftUp moves heap[i] toward the root until the order is restored.
func (e *Engine) siftUp(i int) {
	ev := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.slots[e.heap[i].id].pos = int32(i)
		i = parent
	}
	e.heap[i] = ev
	e.slots[ev.id].pos = int32(i)
}

// siftDown moves heap[i] toward the leaves until the order is restored.
func (e *Engine) siftDown(i int) {
	ev := e.heap[i]
	n := len(e.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.heap[c].before(&e.heap[best]) {
				best = c
			}
		}
		if !e.heap[best].before(&ev) {
			break
		}
		e.heap[i] = e.heap[best]
		e.slots[e.heap[i].id].pos = int32(i)
		i = best
	}
	e.heap[i] = ev
	e.slots[ev.id].pos = int32(i)
}

// popTop removes heap[0], returning its value and releasing its slot. The
// vacated tail entry is zeroed so the heap does not retain callbacks or
// args beyond the event's lifetime.
func (e *Engine) popTop() event {
	top := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
	}
	e.heap[n] = event{}
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	s := &e.slots[top.id]
	s.lastCanceled = s.canceled
	s.canceled = false
	s.gen++
	s.pos = -1
	e.free = append(e.free, top.id)
	return top
}

// cancel marks the event live under (id, gen) as canceled. The entry stays
// in the heap and is discarded when popped (lazy cancellation keeps the
// Pending semantics of the original engine).
func (e *Engine) cancel(id int32, gen uint32) {
	if int(id) >= len(e.slots) {
		return
	}
	s := &e.slots[id]
	if s.gen != gen || s.pos < 0 {
		return
	}
	s.canceled = true
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
	for len(e.heap) > 0 {
		canceled := e.slots[e.heap[0].id].canceled
		ev := e.popTop()
		if canceled {
			continue
		}
		e.now = ev.at
		e.processed++
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.actor.Act(ev.arg)
		}
		return true
	}
	return false
}

// Run fires events until the clock would pass until, then sets the clock to
// exactly until. Events scheduled at until are fired.
func (e *Engine) Run(until time.Duration) {
	for len(e.heap) > 0 && e.heap[0].at <= until {
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
	for len(e.heap) > 0 && e.heap[0].at <= until {
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
