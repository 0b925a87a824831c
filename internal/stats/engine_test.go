package stats

import (
	"runtime"
	"testing"
	"time"

	"memca/internal/sim"
)

// checkFreshEngine fails unless e is in the state sim.NewEngine(seed)
// builds: clock, counters and queue at zero, and the same rand stream.
func checkFreshEngine(t *testing.T, e *sim.Engine, seed int64) {
	t.Helper()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("checked-out engine: Now=%v Pending=%d Processed=%d, want all zero", e.Now(), e.Pending(), e.Processed())
	}
	ref := sim.NewEngine(seed)
	for i := 0; i < 4; i++ {
		if got, want := e.Rand().Int63(), ref.Rand().Int63(); got != want {
			t.Fatalf("seed %d draw %d: %d, sim.NewEngine gives %d", seed, i, got, want)
		}
	}
}

// TestArenaEngine pins the arena's engine checkout: every checkout is a
// zeroed engine whose rand stream is that of sim.NewEngine(seed), the
// engines of one generation are distinct, Reset takes them back, and a
// warm checkout, run and Reset cycle does not touch the heap.
func TestArenaEngine(t *testing.T) {
	a := NewArena()
	e1 := a.Engine(5)
	checkFreshEngine(t, e1, 5)
	e2 := a.Engine(5)
	if e1 == e2 {
		t.Fatal("two checkouts in one generation returned the same engine")
	}
	if live := a.Stats().Live; live != 2 {
		t.Fatalf("Live = %d with two engines checked out, want 2", live)
	}

	// Leave both engines mid-run: fired, queued and canceled events.
	var stale []sim.Event
	for _, e := range []*sim.Engine{e1, e2} {
		for i := 0; i < 100; i++ {
			stale = append(stale, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
		}
		stale[len(stale)-1].Cancel()
		e.Run(50 * time.Millisecond)
	}
	a.Reset()
	if live := a.Stats().Live; live != 0 {
		t.Fatalf("Live = %d after Reset, want 0", live)
	}

	e3 := a.Engine(9)
	if e3 != e1 && e3 != e2 {
		t.Fatal("checkout after Reset did not recycle an engine")
	}
	checkFreshEngine(t, e3, 9)
	var fired []int
	for i := 0; i < 3; i++ {
		e3.Schedule(time.Duration(3-i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	// Stale handles share slot ids with the new events; they must touch
	// none of them.
	for _, ev := range stale {
		ev.Cancel()
		if ev.Canceled() {
			t.Fatal("a handle from before the Reset reports Canceled")
		}
	}
	if err := e3.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 2 || fired[1] != 1 || fired[2] != 0 || e3.Processed() != 3 {
		t.Fatalf("recycled engine fired %v (Processed %d), want [2 1 0]", fired, e3.Processed())
	}
	a.Reset()

	fn := func() {}
	cycle := func() {
		e := a.Engine(1)
		for i := 0; i < 256; i++ {
			e.Schedule(time.Duration(i%17)*time.Microsecond, fn)
		}
		if err := e.RunAll(0); err != nil {
			t.Fatal(err)
		}
		a.Reset()
	}
	cycle() // warm the slot table and the free-list spines
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm engine checkout/run/Reset allocates %v objects/op, want 0", allocs)
	}
}

// heldObject stands in for a model object an event refers to. It holds a
// pointer and is large enough to stay out of the tiny allocator, so its
// finalizer runs once it is unreachable.
type heldObject struct {
	next *heldObject
	pad  [4]int64
}

func (*heldObject) Act(any) {}

// scheduleHeld queues events on e whose callback, actor and arg refer to
// three fresh objects, and returns the channel each object's finalizer
// sends on, buffered for all three.
//
//go:noinline
func scheduleHeld(e *sim.Engine) <-chan struct{} {
	freed := make(chan struct{}, 3)
	objs := [3]*heldObject{{}, {}, {}}
	for _, o := range objs {
		runtime.SetFinalizer(o, func(*heldObject) { freed <- struct{}{} })
	}
	fnObj := objs[0]
	e.Schedule(time.Second, func() { fnObj.pad[0]++ })
	e.ScheduleCall(time.Second, objs[1], objs[2])
	return freed
}

// TestArenaResetDropsEngineReferences pins that a pooled arena pins no
// model objects: after Arena.Reset, the callbacks, actors and args still
// queued on its engines are unreachable from the arena.
func TestArenaResetDropsEngineReferences(t *testing.T) {
	a := NewArena()
	freed := scheduleHeld(a.Engine(1))
	a.Reset()
	n := 0
	for i := 0; i < 100 && n < 3; i++ {
		runtime.GC()
		runtime.Gosched()
		for len(freed) > 0 {
			<-freed
			n++
		}
	}
	runtime.KeepAlive(a)
	if n < 3 {
		t.Fatalf("%d of 3 objects queued on an engine are still reachable after Arena.Reset", 3-n)
	}
}
