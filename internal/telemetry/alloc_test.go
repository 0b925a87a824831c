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
// stamps, event-ring pushes, tail/head sampling, timeline booking, slot
// recycle — performs no heap allocations.
func TestTracedSubmitZeroAllocs(t *testing.T) {
	e := sim.NewEngine(11)
	spec := Spec{
		MaxActive:   256,
		EventRing:   1 << 12,
		TailKeep:    64,
		HeadEvery:   8,
		HeadKeep:    64,
		Resolutions: []time.Duration{50 * time.Millisecond, time.Second},
		// Feature extraction rides the same close path and must keep the
		// zero-alloc contract.
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
