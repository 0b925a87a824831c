package sim

import (
	"errors"
	"testing"
	"time"
)

// Engine operations decoded from fuzz input, four bytes each:
// [op, a, b, c]. a is a signed amount scaled by 2^(b%34) ns, so one input
// mixes ties, near neighbours and far-apart keys (every radix bucket);
// c, when non-zero, makes the event schedule a child int8(c) ns after it
// fires. opReset reseeds the engine with int16(a<<8|b).
const (
	opSchedule = iota
	opAt
	opScheduleCall
	opCancel
	opRun
	opRunChecked
	opStep
	opDrainPush
	opReset
	opCount
)

func fuzzAmount(a, b byte) time.Duration {
	return time.Duration(int8(a)) << (b % 34)
}

// refEvent is one entry of the reference queue.
type refEvent struct {
	at       time.Duration
	seq      uint64
	id       int
	child    time.Duration
	canceled bool
}

// refEngine is the reference model: a plain slice searched linearly for
// the least (at, seq), with the engine's clamping, lazy cancellation and
// Run semantics restated directly.
type refEngine struct {
	now       time.Duration
	seq       uint64
	q         []refEvent
	processed uint64
	fired     []int
}

func (m *refEngine) push(t, child time.Duration) {
	if t < m.now {
		t = m.now
	}
	m.q = append(m.q, refEvent{at: t, seq: m.seq, id: int(m.seq), child: child})
	m.seq++
}

func (m *refEngine) minIndex() int {
	best := 0
	for i, ev := range m.q {
		if ev.at < m.q[best].at || (ev.at == m.q[best].at && ev.seq < m.q[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refEngine) step() bool {
	for len(m.q) > 0 {
		i := m.minIndex()
		ev := m.q[i]
		m.q = append(m.q[:i], m.q[i+1:]...)
		if ev.canceled {
			continue
		}
		m.now = ev.at
		m.processed++
		m.fired = append(m.fired, ev.id)
		if ev.child != 0 {
			m.push(m.now+ev.child, 0)
		}
		return true
	}
	return false
}

// run is RunChecked with an interruption after stopAfter fired events
// (0 = never), reporting whether it was interrupted. Like the engine, it
// stops once the least queued time is after until, but a step may still
// fire a later event when it first discards canceled ones.
func (m *refEngine) run(until time.Duration, stopAfter int) bool {
	fired := 0
	for len(m.q) > 0 && m.q[m.minIndex()].at <= until {
		if !m.step() {
			break
		}
		fired++
		if fired == stopAfter {
			return true
		}
	}
	if m.now < until {
		m.now = until
	}
	return false
}

func (m *refEngine) cancel(id int) {
	for i := range m.q {
		if m.q[i].id == id {
			m.q[i].canceled = true
		}
	}
}

// queued reports whether id is still queued, and whether it was canceled.
func (m *refEngine) queued(id int) (bool, bool) {
	for _, ev := range m.q {
		if ev.id == id {
			return true, ev.canceled
		}
	}
	return false, false
}

// recordActor fires the Actor path of the harness.
type recordActor struct{ h *engineHarness }

func (a recordActor) Act(arg any) { a.h.fire(arg.(int)) }

// engineHarness drives a real Engine the way refEngine is driven. Both
// number events in scheduling order.
type engineHarness struct {
	t       *testing.T
	e       *Engine
	fired   []int
	handles []Event
	atOf    []time.Duration
	childOf []time.Duration
}

func (h *engineHarness) fire(id int) {
	if h.e.Now() != h.atOf[id] {
		h.t.Fatalf("event %d fired at %v, scheduled for %v", id, h.e.Now(), h.atOf[id])
	}
	h.fired = append(h.fired, id)
	if c := h.childOf[id]; c != 0 {
		h.schedule(opSchedule, c, 0)
	}
}

func (h *engineHarness) schedule(op int, amount, child time.Duration) {
	id := len(h.handles)
	at := h.e.Now() + max(amount, 0)
	var ev Event
	switch op {
	case opAt:
		ev = h.e.At(amount, func() { h.fire(id) })
		at = max(amount, h.e.Now())
	case opScheduleCall:
		ev = h.e.ScheduleCall(amount, recordActor{h}, id)
	default:
		ev = h.e.Schedule(amount, func() { h.fire(id) })
	}
	h.handles = append(h.handles, ev)
	h.atOf = append(h.atOf, at)
	h.childOf = append(h.childOf, child)
}

// FuzzEngineOrder checks the radix-heap engine against the reference
// model over random operation sequences: the fire order, the clock, and
// Pending/Processed/Canceled after every operation. Scheduled times may lie
// in the past (clamped), and Run's stopping rule, canceled-only tails and
// pushes after a drain all move the radix heap's reference key.
//
// opReset recycles the engine mid-run with Reset(seed). From then on the
// recycled engine must match both a fresh reference model and a fresh
// NewEngine(seed) that runs only the operations after the Reset, down to
// the first rand draws. No slot may keep a callback or arg, and every
// handle from before the Reset stays inert: Canceled reports false, and
// each opCancel also cancels one of them, which must touch no new event.
func FuzzEngineOrder(f *testing.F) {
	// Run(until) peeks past until and must leave the reference key alone:
	// the event at 40 ns is scheduled after Run(20) stopped short of 100.
	f.Add([]byte{
		opSchedule, 10, 0, 0,
		opSchedule, 100, 0, 0,
		opRun, 20, 0, 0,
		opSchedule, 20, 0, 0,
		opSchedule, 5, 0, 0,
		opStep, 0, 0, 0,
		opStep, 0, 0, 0,
		opStep, 0, 0, 0,
	})
	// A queue holding only a canceled event drains without firing. The
	// pushes after it, at 10 and 101 ns, straddle the canceled event's 100
	// ns and must still fire in time order.
	f.Add([]byte{
		opSchedule, 100, 0, 0,
		opCancel, 0, 0, 0,
		opStep, 0, 0, 0,
		opSchedule, 10, 0, 0,
		opSchedule, 101, 0, 0,
		opStep, 0, 0, 0,
		opDrainPush, 7, 0, 0,
		opStep, 0, 0, 0,
	})
	// Ties, past times, children and an interrupted run.
	f.Add([]byte{
		opSchedule, 1, 20, 3,
		opScheduleCall, 1, 20, 0,
		opAt, 0x80, 5, 0,
		opSchedule, 0xff, 0, 1,
		opRunChecked, 2, 20, 1,
		opCancel, 1, 0, 0,
		opRun, 127, 33, 0,
	})
	// A Reset with queued, canceled and fired events behind it; the
	// cancels after it also hit stale handles.
	f.Add([]byte{
		opSchedule, 10, 0, 2,
		opSchedule, 30, 4, 0,
		opScheduleCall, 20, 0, 0,
		opCancel, 1, 0, 0,
		opStep, 0, 0, 0,
		opReset, 0, 7, 0,
		opSchedule, 5, 0, 0,
		opCancel, 0, 0, 0,
		opScheduleCall, 40, 2, 1,
		opCancel, 2, 0, 0,
		opRun, 100, 3, 0,
	})
	// The slot of a discarded canceled event is reused by an event still
	// queued at the Reset: its stale handle must not inherit the
	// discarded event's Canceled answer.
	f.Add([]byte{
		opSchedule, 10, 0, 0,
		opCancel, 0, 0, 0,
		opStep, 0, 0, 0,
		opSchedule, 20, 0, 0,
		opReset, 1, 0, 0,
		opSchedule, 5, 0, 0,
		opStep, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		h := &engineHarness{t: t, e: NewEngine(1)}
		m := &refEngine{}
		// fresh, once a Reset has happened, is NewEngine(seed) driven by
		// the operations after it against its own model fm; stale holds
		// the handles from before.
		var fresh *engineHarness
		var fm *refEngine
		var stale []Event
		for i := 0; i+4 <= len(ops); i += 4 {
			op := int(ops[i] % opCount)
			if op == opReset {
				seed := int64(int16(uint16(ops[i+1])<<8 | uint16(ops[i+2])))
				stale = append(stale, h.handles...)
				h.e.Reset(seed)
				checkReset(t, i/4, h.e, stale)
				h = &engineHarness{t: t, e: h.e}
				fresh = &engineHarness{t: t, e: NewEngine(seed)}
				m, fm = &refEngine{}, &refEngine{}
				for d := 0; d < 3; d++ {
					if got, want := h.e.Rand().Int63(), fresh.e.Rand().Int63(); got != want {
						t.Fatalf("op %d: rand draw %d after Reset(%d) = %d, fresh engine %d", i/4, d, seed, got, want)
					}
				}
				continue
			}
			if op == opCancel && len(stale) > 0 {
				stale[int(ops[i+2])%len(stale)].Cancel()
			}
			applyOp(t, i/4, h, m, op, ops[i+1:i+4])
			if fresh != nil {
				applyOp(t, i/4, fresh, fm, op, ops[i+1:i+4])
				compareEngine(t, i/4, h, fm)
			}
			for _, ev := range stale {
				if ev.Canceled() {
					t.Fatalf("op %d: a handle from before the Reset reports Canceled", i/4)
				}
			}
		}
		if err := h.e.RunAll(0); err != nil {
			t.Fatalf("final RunAll: %v", err)
		}
		for m.step() {
		}
		compareEngine(t, len(ops)/4, h, m)
		if fresh != nil {
			if err := fresh.e.RunAll(0); err != nil {
				t.Fatalf("final RunAll: %v", err)
			}
			for fm.step() {
			}
			compareEngine(t, len(ops)/4, h, fm)
			compareEngine(t, len(ops)/4, fresh, fm)
		}
	})
}

var errStop = errors.New("stop")

// applyOp applies one decoded operation (args are the operation's a, b
// and c bytes) to the engine of h and to the model m, then compares them.
func applyOp(t *testing.T, op int, h *engineHarness, m *refEngine, code int, args []byte) {
	t.Helper()
	amount := fuzzAmount(args[0], args[1])
	child := time.Duration(int8(args[2]))
	switch code {
	case opSchedule, opScheduleCall:
		h.schedule(code, amount, child)
		m.push(m.now+amount, child)
	case opAt:
		h.schedule(code, h.e.Now()+amount, child)
		m.push(m.now+amount, child)
	case opCancel:
		if len(h.handles) > 0 {
			id := int(args[0]) % len(h.handles)
			h.handles[id].Cancel()
			m.cancel(id)
		}
	case opRun:
		h.e.Run(h.e.Now() + amount)
		m.run(m.now+amount, 0)
	case opRunChecked:
		every := uint64(args[2]%4) + 1
		calls := 0
		err := h.e.RunChecked(h.e.Now()+amount, every, func() error {
			calls++
			if calls == 2 {
				return errStop
			}
			return nil
		})
		if stopped := m.run(m.now+amount, 2*int(every)); (err != nil) != stopped {
			t.Fatalf("op %d: RunChecked returned %v, model interrupted %v", op, err, stopped)
		}
	case opStep:
		if got, want := h.e.Step(), m.step(); got != want {
			t.Fatalf("op %d: Step = %v, model %v", op, got, want)
		}
	case opDrainPush:
		if err := h.e.RunAll(0); err != nil {
			t.Fatalf("op %d: RunAll: %v", op, err)
		}
		for m.step() {
		}
		h.schedule(opSchedule, amount, child)
		m.push(m.now+amount, child)
	}
	compareEngine(t, op, h, m)
}

// checkReset asserts what Reset promises beyond matching a fresh engine:
// no slot keeps a callback or arg, every slot is free, and every handle
// from before the Reset is inert.
func checkReset(t *testing.T, op int, e *Engine, stale []Event) {
	t.Helper()
	free := 0
	for id := e.free; id != nilSlot; id = e.slots[id].next {
		free++
	}
	if free != len(e.slots) {
		t.Fatalf("op %d: %d of %d slots free after Reset", op, free, len(e.slots))
	}
	for id, s := range e.slots {
		if s.fn != nil || s.actor != nil || s.arg != nil {
			t.Fatalf("op %d: slot %d keeps a callback or arg after Reset", op, id)
		}
	}
	for _, ev := range stale {
		if ev.Canceled() {
			t.Fatalf("op %d: a handle from before the Reset reports Canceled", op)
		}
	}
}

func compareEngine(t *testing.T, op int, h *engineHarness, m *refEngine) {
	t.Helper()
	if len(h.fired) != len(m.fired) {
		t.Fatalf("op %d: fired %d events, model %d (engine %v, model %v)", op, len(h.fired), len(m.fired), h.fired, m.fired)
	}
	for i := range m.fired {
		if h.fired[i] != m.fired[i] {
			t.Fatalf("op %d: fire order %v, model %v", op, h.fired, m.fired)
		}
	}
	if h.e.Now() != m.now {
		t.Fatalf("op %d: Now = %v, model %v", op, h.e.Now(), m.now)
	}
	if h.e.Pending() != len(m.q) {
		t.Fatalf("op %d: Pending = %d, model %d", op, h.e.Pending(), len(m.q))
	}
	if h.e.Processed() != m.processed {
		t.Fatalf("op %d: Processed = %d, model %d", op, h.e.Processed(), m.processed)
	}
	for id, ev := range h.handles {
		if q, canceled := m.queued(id); q && ev.Canceled() != canceled {
			t.Fatalf("op %d: event %d Canceled = %v, model %v", op, id, ev.Canceled(), canceled)
		}
	}
}
