package queueing

import (
	"testing"
	"testing/quick"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// TestRandomTopologyConservation drives randomly shaped networks with
// random attack bursts and verifies the global invariants: every tier
// drains to zero, and every request is accounted for exactly once
// (completed, retried, or failed).
func TestRandomTopologyConservation(t *testing.T) {
	f := func(seed int64, tierRaw, qRaw [4]uint8, rateRaw uint16, dRaw, lRaw uint8) bool {
		numTiers := int(tierRaw[0]%4) + 1
		tiers := make([]TierConfig, 0, numTiers)
		prevQ := 256
		for i := 0; i < numTiers; i++ {
			servers := int(tierRaw[i]%3) + 1
			q := int(qRaw[i]%100) + servers + 1
			if q >= prevQ {
				q = prevQ - 1 // descending limits keep condition 1
			}
			if q < servers {
				q = servers
			}
			prevQ = q
			mean := time.Duration(int(qRaw[i])%2000+200) * time.Microsecond
			tiers = append(tiers, TierConfig{
				Name:       string(rune('a' + i)),
				QueueLimit: q,
				Servers:    servers,
				Service:    sim.NewExponential(mean),
			})
		}
		classes := []Class{{Name: "deep", Depth: numTiers - 1}}

		e := sim.NewEngine(seed)
		n, err := New(e, Config{Arena: stats.NewArena(), Mode: ModeNTierRPC, Tiers: tiers, Classes: classes})
		if err != nil {
			return false
		}
		rate := float64(rateRaw%400) + 50
		src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: rate, Retransmit: DefaultRetransmit()})
		if err != nil {
			return false
		}
		src.Start()

		// One random burst against the back tier.
		d := float64(dRaw%50) / 100 // 0..0.49
		l := time.Duration(int(lRaw)%800+50) * time.Millisecond
		e.Schedule(time.Second, func() { _ = n.SetCapacityMultiplier(numTiers-1, d) })
		e.Schedule(time.Second+l, func() { _ = n.SetCapacityMultiplier(numTiers-1, 1) })

		e.Run(4 * time.Second)
		src.Stop()
		if err := e.RunAll(10_000_000); err != nil {
			return false
		}

		for i := 0; i < n.NumTiers(); i++ {
			st, err := n.TierState(i)
			if err != nil || st.InUse != 0 || st.Backlog != 0 || st.BusyStations != 0 {
				return false
			}
		}
		if n.InFlight() != 0 {
			return false
		}
		return src.Sent() == n.Completed()+src.Retransmissions()+src.Failures()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRandomTopologyTierRTOrdering verifies the per-request latency
// ordering invariant (upstream >= downstream) under random shapes.
func TestRandomTopologyTierRTOrdering(t *testing.T) {
	f := func(seed int64, meanRaw [3]uint8) bool {
		e := sim.NewEngine(seed)
		tiers := make([]TierConfig, 3)
		for i := range tiers {
			tiers[i] = TierConfig{
				Name:       string(rune('a' + i)),
				QueueLimit: 60 - 20*i,
				Servers:    2,
				Service:    sim.NewExponential(time.Duration(int(meanRaw[i])%1500+100) * time.Microsecond),
			}
		}
		n, err := New(e, Config{
			Arena:   stats.NewArena(),
			Mode:    ModeNTierRPC,
			Tiers:   tiers,
			Classes: []Class{{Name: "c", Depth: 2}},
		})
		if err != nil {
			return false
		}
		ok := true
		src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 150})
		if err != nil {
			return false
		}
		src.Start()
		e.Schedule(500*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 0.1) })
		e.Schedule(800*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
		e.Run(2 * time.Second)
		src.Stop()
		if err := e.RunAll(10_000_000); err != nil {
			return false
		}
		// Ordering is checked via the tier samples' maxima: the front
		// tier's worst case dominates the back tier's.
		for i := 1; i < 3; i++ {
			up, err1 := n.TierRT(i - 1)
			down, err2 := n.TierRT(i)
			if err1 != nil || err2 != nil {
				return false
			}
			if down.Len() > 0 && up.Max() < down.Max() {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
