package telemetry

import (
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

// TestTracedSubmitZeroAllocs pins the enabled-path allocation contract:
// once the tracer's slabs and the network's pools are warm, a fully
// traced submit → service → complete round trip — slot claim, per-tier
// stamps, event-ring pushes, tail/head sampling, window booking, slot
// recycle — performs no heap allocations.
func TestTracedSubmitZeroAllocs(t *testing.T) {
	e := sim.NewEngine(11)
	spec := Spec{
		MaxActive:      256,
		EventRing:      1 << 12,
		TailKeep:       64,
		HeadEvery:      8,
		HeadKeep:       64,
		FeatureWindows: []time.Duration{50 * time.Millisecond, time.Second},
		TailOver:       time.Second,
	}
	tr, err := New(e, Config{Arena: stats.NewArena(), Spec: spec, Tiers: 1, Seed: 1, Horizon: time.Hour})
	if err != nil {
		t.Fatalf("telemetry.New: %v", err)
	}
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{{
			Name: "front", QueueLimit: queueing.Infinite, Servers: 1,
			Service: sim.NewDeterministic(50 * time.Microsecond),
		}},
		Classes:  []queueing.Class{{Name: "static", Depth: 0}},
		Observer: tr,
	})
	if err != nil {
		t.Fatalf("queueing.New: %v", err)
	}
	submitOne := func() {
		if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if err := e.RunAll(100); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	// Warm the request pool, tracer slots, and stats buffers; the event
	// ring wraps well before the measured phase starts.
	for i := 0; i < 4096; i++ {
		submitOne()
	}
	allocs := testing.AllocsPerRun(10000, submitOne)
	if allocs != 0 {
		t.Errorf("traced submit/complete allocates %v objects/op, want 0", allocs)
	}
	if tr.Closed() == 0 {
		t.Error("tracer observed no completions")
	}
	if tr.Untracked() != 0 {
		t.Errorf("untracked = %d, want 0 (MaxActive never exceeded)", tr.Untracked())
	}
}

// TestTracedRetryCycleZeroAllocs extends the contract to the client's
// retransmission path: with the tracer attached, a drop → SpanRetransmit →
// resubmit (rejoining the trace through its slot) → complete cycle
// performs no heap allocations.
func TestTracedRetryCycleZeroAllocs(t *testing.T) {
	e := sim.NewEngine(3)
	spec := Spec{
		MaxActive:      64,
		EventRing:      1 << 10,
		TailKeep:       16,
		HeadEvery:      4,
		HeadKeep:       16,
		FeatureWindows: []time.Duration{50 * time.Millisecond},
		TailOver:       time.Millisecond,
	}
	tr, err := New(e, Config{Arena: stats.NewArena(), Spec: spec, Tiers: 1, Seed: 1, Horizon: time.Hour})
	if err != nil {
		t.Fatalf("telemetry.New: %v", err)
	}
	// A one-slot tier: the second of two back-to-back requests is
	// dropped and retransmitted 2ms later into the idle tier.
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{{
			Name: "front", QueueLimit: 1, Servers: 1,
			Service: sim.NewDeterministic(time.Millisecond),
		}},
		Classes:    []queueing.Class{{Name: "static", Depth: 0}},
		Retransmit: queueing.RetransmitPolicy{RTOMin: 2 * time.Millisecond, Backoff: 1, MaxRetries: 1},
		Observer:   tr,
	})
	if err != nil {
		t.Fatalf("queueing.New: %v", err)
	}
	c := queueing.NewClient(n, nil)
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
	tr.Reset(e.Now())
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("traced drop/retransmit/resubmit/complete allocates %v objects/op, want 0", allocs)
	}
	// 1001 measured cycles (AllocsPerRun runs one warm-up), two traces
	// each, and every retransmitted trace rejoined its slot: its 2ms wait
	// shows in the slowest sample.
	if tr.Closed() != 2*1001 || tr.OpenTraces() != 0 || tr.Untracked() != 0 {
		t.Errorf("closed %d, open %d, untracked %d; want 2002, 0, 0", tr.Closed(), tr.OpenTraces(), tr.Untracked())
	}
	if slow := tr.TailAttributions()[0]; slow.Attempts != 2 || slow.RetransWait != 2*time.Millisecond {
		t.Errorf("slowest trace: %d attempts, retransmission wait %v; want 2 and 2ms", slow.Attempts, slow.RetransWait)
	}
}
