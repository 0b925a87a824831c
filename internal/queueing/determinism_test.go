package queueing

import (
	"fmt"
	"testing"
	"time"

	"memca/internal/sim"
)

// fingerprintRun drives the standard 3-tier topology under a Poisson
// source for 30 virtual seconds and serializes every externally visible
// metric — completion/drop/retransmission counters, the raw client RT
// sample, per-tier RT samples and occupancy integrals — into one string.
// Byte-identical fingerprints mean the run was reproduced exactly.
func fingerprintRun(t *testing.T, seed int64) string {
	t.Helper()
	e := sim.NewEngine(seed)
	n := threeTier(t, e, 60, 30, 15, false, RetransmitPolicy{RTOMin: 200 * time.Millisecond, Backoff: 2, MaxRetries: 3})
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 400})
	if err != nil {
		t.Fatalf("NewPoissonSource: %v", err)
	}
	src.Start()
	// A mid-run capacity dip exercises the fluid-reconciliation path too.
	e.Schedule(10*time.Second, func() {
		if err := n.SetCapacityMultiplier(2, 0.3); err != nil {
			t.Errorf("SetCapacityMultiplier: %v", err)
		}
	})
	e.Schedule(12*time.Second, func() {
		if err := n.SetCapacityMultiplier(2, 1.0); err != nil {
			t.Errorf("SetCapacityMultiplier: %v", err)
		}
	})
	e.Run(30 * time.Second)
	src.Stop()

	fp := fmt.Sprintf("sent=%d retrans=%d failures=%d completed=%d drops=%d inflight=%d processed=%d\n",
		src.Sent(), src.Retransmissions(), src.Failures(),
		n.Completed(), n.Drops(), n.InFlight(), e.Processed())
	fp += fmt.Sprintf("clientRT=%v\n", src.ClientRT().Values())
	for i := 0; i < n.NumTiers(); i++ {
		rt, err := n.TierRT(i)
		if err != nil {
			t.Fatalf("TierRT(%d): %v", i, err)
		}
		occ, err := n.TierOccupancy(i)
		if err != nil {
			t.Fatalf("TierOccupancy(%d): %v", i, err)
		}
		fp += fmt.Sprintf("tier%d rt=%v occ=%.17g\n", i, rt.Values(), occ.Integral(30*time.Second))
	}
	return fp
}

// TestSeedDeterminism is the regression test for the invariant memca-lint
// exists to protect: the same seed must reproduce a run byte for byte,
// and a different seed must actually change it.
func TestSeedDeterminism(t *testing.T) {
	a := fingerprintRun(t, 7)
	b := fingerprintRun(t, 7)
	if a != b {
		t.Errorf("same seed produced different runs:\nrun1: %.200s...\nrun2: %.200s...", a, b)
	}
	c := fingerprintRun(t, 8)
	if a == c {
		t.Error("different seeds produced byte-identical runs; randomness is not flowing from the seed")
	}
}
