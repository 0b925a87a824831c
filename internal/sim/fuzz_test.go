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
// fires.
const (
	opSchedule = iota
	opAt
	opScheduleCall
	opCancel
	opRun
	opRunChecked
	opStep
	opDrainPush
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
	var ev Event
	switch op {
	case opAt:
		ev = h.e.At(amount, func() { h.fire(id) })
	case opScheduleCall:
		ev = h.e.ScheduleCall(amount, recordActor{h}, id)
	default:
		ev = h.e.Schedule(amount, func() { h.fire(id) })
	}
	h.handles = append(h.handles, ev)
	h.atOf = append(h.atOf, ev.Time())
	h.childOf = append(h.childOf, child)
}

// FuzzEngineOrder checks the radix-heap engine against the reference
// model over random operation sequences: the fire order, the clock, and
// Pending/Processed/Canceled after every operation. Scheduled times may lie
// in the past (clamped), and Run's stopping rule, canceled-only tails and
// pushes after a drain all move the radix heap's reference key.
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		h := &engineHarness{t: t, e: NewEngine(1)}
		m := &refEngine{}
		errStop := errors.New("stop")
		for i := 0; i+4 <= len(ops); i += 4 {
			op := int(ops[i] % opCount)
			amount := fuzzAmount(ops[i+1], ops[i+2])
			child := time.Duration(int8(ops[i+3]))
			switch op {
			case opSchedule, opScheduleCall:
				h.schedule(op, amount, child)
				m.push(m.now+amount, child)
			case opAt:
				h.schedule(op, h.e.Now()+amount, child)
				m.push(m.now+amount, child)
			case opCancel:
				if len(h.handles) > 0 {
					id := int(ops[i+1]) % len(h.handles)
					h.handles[id].Cancel()
					m.cancel(id)
				}
			case opRun:
				h.e.Run(h.e.Now() + amount)
				m.run(m.now+amount, 0)
			case opRunChecked:
				every := uint64(ops[i+3]%4) + 1
				calls := 0
				err := h.e.RunChecked(h.e.Now()+amount, every, func() error {
					calls++
					if calls == 2 {
						return errStop
					}
					return nil
				})
				if stopped := m.run(m.now+amount, 2*int(every)); (err != nil) != stopped {
					t.Fatalf("op %d: RunChecked returned %v, model interrupted %v", i/4, err, stopped)
				}
			case opStep:
				if got, want := h.e.Step(), m.step(); got != want {
					t.Fatalf("op %d: Step = %v, model %v", i/4, got, want)
				}
			case opDrainPush:
				if err := h.e.RunAll(0); err != nil {
					t.Fatalf("op %d: RunAll: %v", i/4, err)
				}
				for m.step() {
				}
				h.schedule(opSchedule, amount, child)
				m.push(m.now+amount, child)
			}
			compareEngine(t, i/4, h, m)
		}
		if err := h.e.RunAll(0); err != nil {
			t.Fatalf("final RunAll: %v", err)
		}
		for m.step() {
		}
		compareEngine(t, len(ops)/4, h, m)
	})
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
