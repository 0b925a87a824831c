package stats_test

import (
	"math"
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

// TestNetworkWithoutHistoryRequests runs the same 3-tier network twice:
// once with no KeepHistory request, once with history on every tier
// integrator. The first run must leave every history empty, and its
// levels and integrals must equal the second run's bit for bit.
func TestNetworkWithoutHistoryRequests(t *testing.T) {
	const horizon = 20 * time.Second
	run := func(keep bool) []*stats.LevelIntegrator {
		a := stats.NewArena()
		e := sim.NewEngine(5)
		tiers := make([]queueing.TierConfig, 3)
		for i, name := range []string{"web", "app", "db"} {
			tiers[i] = queueing.TierConfig{
				Name:       name,
				QueueLimit: 40 >> i,
				Servers:    2,
				Service:    sim.NewExponential(time.Duration(i+1) * 2 * time.Millisecond),
			}
		}
		n, err := queueing.New(e, queueing.Config{
			Mode:    queueing.ModeNTierRPC,
			Tiers:   tiers,
			Classes: []queueing.Class{{Name: "deep", Depth: 2}},
			Arena:   a,
		})
		if err != nil {
			t.Fatal(err)
		}
		var lis []*stats.LevelIntegrator
		for i := 0; i < n.NumTiers(); i++ {
			occ, err := n.TierOccupancy(i)
			if err != nil {
				t.Fatal(err)
			}
			busy, err := n.TierBusy(i)
			if err != nil {
				t.Fatal(err)
			}
			lis = append(lis, occ, busy)
		}
		if keep {
			for _, li := range lis {
				li.KeepHistory()
			}
		}
		src, err := queueing.NewPoissonSource(n, queueing.SourceConfig{Class: 0, Rate: 600})
		if err != nil {
			t.Fatal(err)
		}
		src.Start()
		e.Run(horizon)
		src.Stop()
		if err := e.RunAll(0); err != nil {
			t.Fatal(err)
		}
		if n.Completed() == 0 {
			t.Fatal("no request completed")
		}
		return lis
	}
	off, on := run(false), run(true)
	for i := range off {
		if c := stats.HistoryCap(off[i]); c != 0 {
			t.Errorf("integrator %d: no history requested, but it holds %d transitions of storage", i, c)
		}
		if stats.HistoryCap(on[i]) == 0 {
			t.Errorf("integrator %d: history requested, but none recorded", i)
		}
		got, want := off[i].Integral(2*horizon), on[i].Integral(2*horizon)
		if math.Float64bits(got) != math.Float64bits(want) || off[i].Level() != on[i].Level() {
			t.Errorf("integrator %d: history off gives level %d integral %v, on gives %d %v",
				i, off[i].Level(), got, on[i].Level(), want)
		}
	}
}
