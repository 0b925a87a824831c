package figures

import (
	"fmt"
	"strings"
	"time"

	"memca/internal/analytical"
	"memca/internal/attack"
	"memca/internal/queueing"
	"memca/internal/stats"
)

// fig7Percentiles is the x-axis grid of the Figure 7 tail plots.
var fig7Percentiles = []float64{50, 60, 70, 75, 80, 85, 90, 92, 94, 95, 96, 97, 98, 99, 99.5, 99.9}

// Fig7Case names the three model variants of Figure 7.
type Fig7Case string

// Figure 7 cases.
const (
	// Fig7Tandem is case (a): tandem queues, infinite MySQL queue —
	// per-tier percentile curves nearly overlap.
	Fig7Tandem Fig7Case = "tandem"
	// Fig7InfiniteFront is case (b): the attack model with an infinite
	// Apache queue — tails amplify by cross-tier overflow, no drops.
	Fig7InfiniteFront Fig7Case = "infinite-front"
	// Fig7Finite is case (c): finite queues everywhere — drops and TCP
	// retransmissions push the client tail past every tier.
	Fig7Finite Fig7Case = "finite"
)

// Fig7CaseResult summarizes one variant.
type Fig7CaseResult struct {
	ClientP99 time.Duration
	MySQLP99  time.Duration
	// SpreadP99 is client p99 minus mysql p99: the amplification gap.
	SpreadP99 time.Duration
	Drops     uint64
}

// Fig7Result captures Figure 7: tail amplification across the three model
// variants under the same attack.
type Fig7Result struct {
	Cases map[Fig7Case]Fig7CaseResult
}

func init() {
	registerDist(DistDriver{Name: "fig7", New: newFig7Run})
}

// fig7Record is one case's run: percentile curves for the client and
// each tier (in fig7CurveOrder) plus the case summary.
type fig7Record struct {
	Curves [][]time.Duration
	Result Fig7CaseResult
}

// fig7CurveOrder names a fig7Record's curves, which is also the CSV's
// column order.
var fig7CurveOrder = append([]string{"client"}, rubbosTierNames()...)

// newFig7Run prepares the Figure 7 driver: one independent model
// simulation per case under the same attack.
func newFig7Run(opts Options) (*DistRun, error) {
	d, params := fig6Attack()
	horizon := opts.duration(3 * time.Minute)
	m := analytical.RUBBoS3Tier()
	variants := []struct {
		name   Fig7Case
		mode   queueing.Mode
		limits [3]int
	}{
		{Fig7Tandem, queueing.ModeTandem, [3]int{queueing.Infinite, queueing.Infinite, queueing.Infinite}},
		{Fig7InfiniteFront, queueing.ModeNTierRPC, [3]int{queueing.Infinite, m.Tiers[1].Queue, m.Tiers[2].Queue}},
		{Fig7Finite, queueing.ModeNTierRPC, [3]int{m.Tiers[0].Queue, m.Tiers[1].Queue, m.Tiers[2].Queue}},
	}
	return newRun(len(variants), func(a *stats.Arena, vi int) (fig7Record, error) {
		v := variants[vi]
		e := a.Engine(opts.Seed)
		n, sources, err := modelNetwork(e, a, v.mode, v.limits, queueing.DefaultRetransmit())
		if err != nil {
			return fig7Record{}, fmt.Errorf("figures: fig7 %s: %w", v.name, err)
		}
		inj, err := attack.NewDirectInjector(n, 2, d)
		if err != nil {
			return fig7Record{}, err
		}
		b, err := attack.NewBurster(e, a, inj, params)
		if err != nil {
			return fig7Record{}, err
		}
		for _, s := range sources {
			s.Start()
		}
		e.Run(5 * time.Second)
		n.ResetTierSamples()
		b.Start()
		e.Run(5*time.Second + horizon)
		b.Stop()
		for _, s := range sources {
			s.Stop()
		}
		if err := e.RunAll(100_000_000); err != nil {
			return fig7Record{}, fmt.Errorf("figures: fig7 %s drain: %w", v.name, err)
		}

		// Client RT: merge the per-source samples (deep class dominates).
		client := a.Sample(4096)
		for _, s := range sources {
			client.Merge(s.ClientRT())
		}
		rec := fig7Record{Curves: [][]time.Duration{client.PercentileCurve(fig7Percentiles)}}
		for i := range rubbosTierNames() {
			sample, err := n.TierRT(i)
			if err != nil {
				return fig7Record{}, err
			}
			rec.Curves = append(rec.Curves, sample.PercentileCurve(fig7Percentiles))
		}

		mysqlSample, err := n.TierRT(2)
		if err != nil {
			return fig7Record{}, err
		}
		rec.Result = Fig7CaseResult{
			ClientP99: client.Percentile(99),
			MySQLP99:  mysqlSample.Percentile(99),
			Drops:     n.Drops(),
		}
		rec.Result.SpreadP99 = rec.Result.ClientP99 - rec.Result.MySQLP99
		return rec, nil
	}, func(recs []fig7Record) (any, string, error) {
		res := &Fig7Result{Cases: make(map[Fig7Case]Fig7CaseResult)}
		lines := make([]string, 0, len(recs))
		for i, v := range variants {
			if err := writeCurves(opts.path(fmt.Sprintf("fig7_%s.csv", v.name)), fig7Percentiles, fig7CurveOrder, recs[i].Curves); err != nil {
				return nil, "", err
			}
			r := recs[i].Result
			res.Cases[v.name] = r
			lines = append(lines, fmt.Sprintf("%-15s client p99 = %-9v mysql p99 = %-9v spread = %-9v drops = %d",
				v.name, r.ClientP99.Round(time.Millisecond), r.MySQLP99.Round(time.Millisecond),
				r.SpreadP99.Round(time.Millisecond), r.Drops))
		}
		return res, strings.Join(lines, "\n"), nil
	}), nil
}

// Fig7 runs the three variants and writes one percentile-curve CSV per
// case.
func Fig7(opts Options) (*Fig7Result, error) { return runAs[*Fig7Result]("fig7", opts) }
