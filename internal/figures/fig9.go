package figures

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/core"
	"memca/internal/stats"
)

// Fig9Result captures Figure 9: the 8-second fine-grained (50 ms) snapshot
// of a MemCA attack in flight — attack bursts, transient MySQL CPU
// saturation, cross-tier queue propagation, and client response times.
type Fig9Result struct {
	// BurstsInWindow counts attack bursts inside the snapshot window.
	BurstsInWindow int
	// MySQLSaturated reports that the 50 ms view hit ~100% CPU during
	// bursts.
	MySQLSaturated bool
	// QueuePropagated reports that all three tiers' queues rose during
	// bursts.
	QueuePropagated bool
	// MaxClientRT is the worst client response time in the window.
	MaxClientRT time.Duration
}

func init() {
	registerDist(DistDriver{Name: "fig9", New: newFig9Run})
}

// fig9Record is the run's verdict plus its four panels over the
// snapshot window, with times relative to the window start.
type fig9Record struct {
	Result   Fig9Result
	Bursts   []stats.Bucket // panel (a): adversary activity
	MySQLCPU []stats.Bucket // panel (b): MySQL CPU
	Queues   [][]string     // panel (c): CSV rows of per-tier occupancy
	ClientRT []stats.Point  // panel (d): client response times
}

// newFig9Run prepares the Figure 9 driver: the standard attack with
// fine-grained recording, sampled at 50 ms over an 8-second window
// starting shortly after measurement begins.
func newFig9Run(opts Options) (*DistRun, error) {
	return newRun(1, func(a *stats.Arena, _ int) (fig9Record, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(time.Minute)
		cfg.RecordSeries = true
		cfg.Arena = a
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return fig9Record{}, fmt.Errorf("figures: fig9: %w", err)
		}
		var occs [3]*stats.LevelIntegrator
		for i := range occs {
			if occs[i], err = x.Network().TierOccupancy(i); err != nil {
				return fig9Record{}, err
			}
			occs[i].KeepHistory()
		}
		if _, err := x.Run(); err != nil {
			return fig9Record{}, fmt.Errorf("figures: fig9 run: %w", err)
		}
		start := cfg.Warmup + 4*time.Second
		end := start + 8*time.Second
		const width = 50 * time.Millisecond
		var rec fig9Record
		res := &rec.Result
		adversary := x.Burster().Busy()
		prev, maxU, peaks := 0.0, 0.0, [3]float64{}
		for t := start; t < end; t += width {
			// Attack bursts, counted by rising edges.
			u := adversary.WindowAverage(t, t+width)
			if u > 0.5 && prev <= 0.5 {
				res.BurstsInWindow++
			}
			prev = u
			rec.Bursts = append(rec.Bursts, stats.Bucket{Start: t - start, Mean: u, Max: u, Min: u, Count: 1})
			if u, err = x.Network().TierUtilization(2, t, t+width); err != nil {
				return fig9Record{}, err
			}
			if u > maxU {
				maxU = u
			}
			rec.MySQLCPU = append(rec.MySQLCPU, stats.Bucket{Start: t - start, Mean: u, Max: u, Min: u, Count: 1})
			row := []string{strconv.FormatFloat((t - start).Seconds(), 'f', 3, 64)}
			for i, occ := range occs {
				v := occ.WindowAverage(t, t+width)
				if v > peaks[i] {
					peaks[i] = v
				}
				row = append(row, strconv.FormatFloat(v, 'f', 2, 64))
			}
			rec.Queues = append(rec.Queues, row)
		}
		res.MySQLSaturated = maxU > 0.99
		res.QueuePropagated = peaks[0] > 30 && peaks[1] > 30 && peaks[2] > 20
		for _, p := range x.Generator().RTSeries().Points {
			if p.T >= start && p.T < end {
				rec.ClientRT = append(rec.ClientRT, stats.Point{T: p.T - start, V: p.V})
				if rt := time.Duration(p.V * float64(time.Second)); rt > res.MaxClientRT {
					res.MaxClientRT = rt
				}
			}
		}
		return rec, nil
	}, func(recs []fig9Record) (any, string, error) {
		rec := recs[0]
		if err := writeBuckets(opts.path("fig9a_attack_bursts.csv"), rec.Bursts); err != nil {
			return nil, "", err
		}
		if err := writeBuckets(opts.path("fig9b_mysql_cpu.csv"), rec.MySQLCPU); err != nil {
			return nil, "", err
		}
		if err := opts.writeCSV("fig9c_queues.csv", []string{"t_s", "apache_q", "tomcat_q", "mysql_q"}, rec.Queues); err != nil {
			return nil, "", err
		}
		if err := writeSeries(opts.path("fig9d_client_rt.csv"), rec.ClientRT); err != nil {
			return nil, "", err
		}
		res := rec.Result
		summary := fmt.Sprintf("%d bursts in the 8s window; mysql transiently saturated: %v; queues propagated: %v; worst client RT %v",
			res.BurstsInWindow, res.MySQLSaturated, res.QueuePropagated, res.MaxClientRT.Round(time.Millisecond))
		return &res, summary, nil
	}), nil
}
