package figures

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/analytical"
	"memca/internal/attack"
	"memca/internal/queueing"
	"memca/internal/stats"
)

// fig6Attack is the attack parameterization of the model experiments
// (Figures 6 and 7): strong degradation, 500 ms bursts every 2 s.
func fig6Attack() (float64, attack.Params) {
	return 0.05, attack.Params{Intensity: 1, BurstLength: 500 * time.Millisecond, Interval: 2 * time.Second}
}

// Fig6Result captures Figure 6: cross-tier queue overflow under MemCA in
// the paper's system model versus the classic tandem queue.
type Fig6Result struct {
	// TandemMySQLMax is the peak MySQL occupancy in the tandem model —
	// all queued work sits in the last tier.
	TandemMySQLMax float64
	// TandemUpstreamMax is the peak occupancy across Apache and Tomcat
	// in the tandem model (stays near their own service needs).
	TandemUpstreamMax float64
	// RPCFilled reports whether every tier's queue hit its limit in the
	// RPC model (overflow propagated to the front).
	RPCFilled bool
	// RPCFillOrder holds the first-full times per tier (apache, tomcat,
	// mysql) of the RPC model's first burst; back-to-front propagation
	// means mysql <= tomcat <= apache.
	RPCFillOrder [3]time.Duration
}

func init() {
	registerDist(DistDriver{Name: "fig6", New: newFig6Run})
}

// fig6Record is one model's run: the exported window's 20 ms occupancy
// timeline as CSV rows, the peak occupancies, and the first-full
// instants.
type fig6Record struct {
	Timeline [][]string
	MaxOcc   [3]float64
	FullAt   [3]time.Duration
}

// newFig6Run prepares the Figure 6 driver: two independent models under
// the same attack — the tandem baseline (infinite queues, work piles at
// the bottleneck) and the paper's RPC model (finite descending queues,
// overflow propagates front).
func newFig6Run(opts Options) (*DistRun, error) {
	d, params := fig6Attack()
	horizon := opts.duration(40 * time.Second)
	m := analytical.RUBBoS3Tier()
	variants := []struct {
		name   string
		mode   queueing.Mode
		limits [3]int
	}{
		{"tandem", queueing.ModeTandem, [3]int{queueing.Infinite, queueing.Infinite, queueing.Infinite}},
		{"rpc", queueing.ModeNTierRPC, [3]int{m.Tiers[0].Queue, m.Tiers[1].Queue, m.Tiers[2].Queue}},
	}
	run := func(a *stats.Arena, mode queueing.Mode, queueLimits [3]int) (fig6Record, error) {
		rr := fig6Record{}
		e := a.Engine(opts.Seed)
		n, sources, err := modelNetwork(e, a, mode, queueLimits, queueing.DefaultRetransmit())
		if err != nil {
			return rr, err
		}
		var occs [3]*stats.LevelIntegrator
		for i := range occs {
			if occs[i], err = n.TierOccupancy(i); err != nil {
				return rr, err
			}
			occs[i].KeepHistory()
		}
		inj, err := attack.NewDirectInjector(n, 2, d)
		if err != nil {
			return rr, err
		}
		b, err := attack.NewBurster(e, a, inj, params)
		if err != nil {
			return rr, err
		}
		for _, s := range sources {
			s.Start()
		}
		// Warm up 5 s, then attack.
		e.Run(5 * time.Second)
		b.Start()
		attackStart := e.Now()

		// Track first-full instants with a fine poller.
		var poll func()
		poll = func() {
			for i := 0; i < 3; i++ {
				st, err := n.TierState(i)
				if err != nil {
					return
				}
				occ := float64(st.InUse)
				if occ > rr.MaxOcc[i] {
					rr.MaxOcc[i] = occ
				}
				if queueLimits[i] != queueing.Infinite && rr.FullAt[i] == 0 && st.InUse >= queueLimits[i] {
					rr.FullAt[i] = e.Now() - attackStart
				}
			}
			if e.Now() < horizon {
				e.Schedule(5*time.Millisecond, poll)
			}
		}
		e.Schedule(0, poll)
		e.Run(horizon)
		b.Stop()
		for _, s := range sources {
			s.Stop()
		}

		// Export a 8-second window around the first post-warmup bursts
		// at 20 ms resolution.
		const width = 20 * time.Millisecond
		for t := attackStart; t < attackStart+8*time.Second; t += width {
			row := []string{strconv.FormatFloat((t - attackStart).Seconds(), 'f', 3, 64)}
			for _, occ := range occs {
				row = append(row, strconv.FormatFloat(occ.WindowAverage(t, t+width), 'f', 2, 64))
			}
			rr.Timeline = append(rr.Timeline, row)
		}
		return rr, nil
	}

	return newRun(len(variants), func(a *stats.Arena, i int) (fig6Record, error) {
		rr, err := run(a, variants[i].mode, variants[i].limits)
		if err != nil {
			return rr, fmt.Errorf("figures: fig6 %s: %w", variants[i].name, err)
		}
		return rr, nil
	}, func(runs []fig6Record) (any, string, error) {
		tandem, rpc := runs[0], runs[1]
		res := &Fig6Result{RPCFilled: true}
		res.TandemMySQLMax = tandem.MaxOcc[2]
		res.TandemUpstreamMax = tandem.MaxOcc[0]
		if tandem.MaxOcc[1] > res.TandemUpstreamMax {
			res.TandemUpstreamMax = tandem.MaxOcc[1]
		}
		for i := 0; i < 3; i++ {
			if rpc.FullAt[i] == 0 {
				res.RPCFilled = false
			}
			res.RPCFillOrder[i] = rpc.FullAt[i]
		}
		for i, v := range variants {
			if err := opts.writeCSV(fmt.Sprintf("fig6_%s.csv", v.name), []string{"t_s", "apache_q", "tomcat_q", "mysql_q"}, runs[i].Timeline); err != nil {
				return nil, "", err
			}
		}
		summary := fmt.Sprintf("tandem: mysql max occupancy %.0f, upstream max %.0f\nrpc: all queues filled %v, fill order mysql %v -> tomcat %v -> apache %v",
			res.TandemMySQLMax, res.TandemUpstreamMax, res.RPCFilled,
			res.RPCFillOrder[2].Round(time.Millisecond),
			res.RPCFillOrder[1].Round(time.Millisecond),
			res.RPCFillOrder[0].Round(time.Millisecond))
		return res, summary, nil
	}), nil
}

// Fig6 runs both queueing models under identical ON-OFF attacks and
// writes per-tier occupancy time lines.
func Fig6(opts Options) (*Fig6Result, error) { return runAs[*Fig6Result]("fig6", opts) }
