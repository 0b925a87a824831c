package queueing

import (
	"testing"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// TestSubmitRecycleZeroAllocs pins the request-pooling contract: once the
// pools and stats buffers are warm, a submit → service → complete →
// recycle round trip performs no heap allocations. (Stats-history appends
// still double occasionally; the integer-averaged AllocsPerRun result
// absorbs that amortized tail.)
func TestSubmitRecycleZeroAllocs(t *testing.T) {
	e := sim.NewEngine(11)
	n := singleTier(t, e, Infinite, 1, 50*time.Microsecond)
	completions := 0
	onComplete := func(*Request) { completions++ }
	submitOne := func() {
		if _, err := n.Submit(SubmitOpts{Class: 0, OnComplete: onComplete}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if err := e.RunAll(100); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	// Warm the request/run pools and grow the stats buffers.
	for i := 0; i < 4096; i++ {
		submitOne()
	}
	allocs := testing.AllocsPerRun(10000, submitOne)
	if allocs != 0 {
		t.Errorf("submit/complete/recycle allocates %v objects/op, want 0", allocs)
	}
	if completions == 0 {
		t.Error("no completions observed")
	}
}

// TestRecycledRequestNoAliasing pins the reset contract: a recycled
// Request must not leak any prior-run field — timestamps, attempt counts,
// user data, or callbacks — into the next submission's statistics.
func TestRecycledRequestNoAliasing(t *testing.T) {
	e := sim.NewEngine(5)
	n := threeTier(t, e, 100, 100, 100, true, RetransmitPolicy{})

	var firstPtr *Request
	first, err := n.Submit(SubmitOpts{
		Class:      0,
		UserData:   "stale-user-data",
		OnComplete: func(r *Request) { firstPtr = r },
		resend:     &retry{first: 3 * time.Second, attempt: 4, traceID: 9, slot: 5},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if first.Attempt != 4 || first.TraceSlot != 5 || first.UserData != "stale-user-data" {
		t.Fatalf("submitted request lost its options: %+v", first)
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if firstPtr == nil {
		t.Fatal("first request never completed")
	}

	second, err := n.Submit(SubmitOpts{Class: 0})
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if second != firstPtr {
		// Pooling should hand the recycled object back; if it ever does
		// not, the aliasing checks below are vacuous, so flag it.
		t.Fatalf("expected recycled request, got a fresh allocation")
	}
	if second.Attempt != 0 {
		t.Errorf("recycled Attempt = %d, want 0", second.Attempt)
	}
	if second.TraceSlot != -1 {
		t.Errorf("recycled TraceSlot = %d, want -1", second.TraceSlot)
	}
	if second.UserData != nil {
		t.Errorf("recycled UserData = %v, want nil", second.UserData)
	}
	if second.Done != 0 {
		t.Errorf("recycled Done = %v, want 0", second.Done)
	}
	if second.Dropped {
		t.Error("recycled Dropped = true, want false")
	}
	if second.FirstAttempt != e.Now() {
		t.Errorf("recycled FirstAttempt = %v, want now (%v)", second.FirstAttempt, e.Now())
	}
	// The prior run visited three tiers and stamped all six timestamps;
	// none may survive into the new attempt beyond the fresh admission.
	for i, at := range second.TierArrive {
		if i > 0 && at != 0 {
			t.Errorf("recycled TierArrive[%d] = %v, want 0", i, at)
		}
	}
	for i, lv := range second.TierLeave {
		if lv != 0 {
			t.Errorf("recycled TierLeave[%d] = %v, want 0", i, lv)
		}
	}
	if rt := second.TierRT(2); rt != 0 {
		t.Errorf("recycled TierRT(2) = %v, want 0 before the tier is reached", rt)
	}
}

// TestRetryCycleZeroAllocs pins the Client's retransmission contract:
// once the request and retry pools are warm, a drop → SpanRetransmit →
// resubmit → complete cycle performs no heap allocations.
func TestRetryCycleZeroAllocs(t *testing.T) {
	// A one-slot tier with 1ms service whose clients retransmit once, 2ms
	// after a drop: of two requests submitted back to back the second is
	// dropped, and its retransmission finds the tier idle.
	e := sim.NewEngine(3)
	n, err := New(e, Config{
		Arena:      stats.NewArena(),
		Mode:       ModeNTierRPC,
		Tiers:      []TierConfig{{Name: "only", QueueLimit: 1, Servers: 1, Service: sim.NewDeterministic(time.Millisecond)}},
		Classes:    []Class{{Name: "basic"}},
		Retransmit: RetransmitPolicy{RTOMin: 2 * time.Millisecond, Backoff: 1, MaxRetries: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	completed := uint64(0)
	c := NewClient(n, func(req *Request) {
		if !req.Dropped {
			completed++
		}
	})
	cycle := func() {
		c.Submit(0, nil)
		c.Submit(0, nil)
		if err := e.RunAll(100); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	for i := 0; i < 1024; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("drop/retransmit/resubmit/complete allocates %v objects/op, want 0", allocs)
	}
	// Every cycle sends two first attempts and one retransmission, and
	// both requests complete.
	cycles := c.Retransmissions()
	if cycles == 0 || c.Failures() != 0 || c.Sent() != 3*cycles || completed != 2*cycles {
		t.Errorf("sent %d, retransmissions %d, failures %d, completed %d: not one retransmission per cycle",
			c.Sent(), cycles, c.Failures(), completed)
	}
}
