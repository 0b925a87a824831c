package figures

import (
	"fmt"
	"time"

	"memca/internal/core"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/stats"
)

// Fig11Result captures Figure 11: OProfile-style LLC-miss monitoring of
// the MySQL host under the two attack approaches.
type Fig11Result struct {
	// SaturationPeriodicity is the autocorrelation of the victim's LLC
	// misses at the burst interval under bus saturation (visible
	// pattern).
	SaturationPeriodicity float64
	// LockPeriodicity is the same under memory locking (no pattern).
	LockPeriodicity float64
	// LockAdversaryMaxMisses is the locking attacker's own peak miss
	// rate (near zero: invisible to the profiler).
	LockAdversaryMaxMisses float64
}

func init() {
	registerDist(DistDriver{Name: "fig11", New: newFig11Run})
}

// fig11Record is one attack kind's run: the victim's and the adversary's
// LLC-miss series, the victim's periodicity at the burst interval, and
// the adversary's peak miss rate.
type fig11Record struct {
	Victim      []stats.Point
	Adversary   []stats.Point
	Periodicity float64
	AdvMax      float64
}

// newFig11Run prepares the Figure 11 driver: the attack run twice — bus
// saturation and memory lock — in the private cloud with 50 ms LLC
// sampling.
func newFig11Run(opts Options) (*DistRun, error) {
	const period = 50 * time.Millisecond
	runs := []struct {
		kind           memmodel.AttackKind
		victim, advCSV string
	}{
		{memmodel.AttackBusSaturation, "fig11a_llc_saturation.csv", "fig11a_llc_adversary.csv"},
		{memmodel.AttackMemoryLock, "fig11b_llc_lock.csv", "fig11b_llc_adversary.csv"},
	}
	return newRun(len(runs), func(a *stats.Arena, i int) (fig11Record, error) {
		kind := runs[i].kind
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Env = core.EnvPrivateCloud
		cfg.Duration = opts.duration(time.Minute)
		cfg.Attack.Kind = kind
		cfg.LLCSamplePeriod = period
		cfg.Arena = a
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return fig11Record{}, fmt.Errorf("figures: fig11 %v: %w", kind, err)
		}
		if _, err := x.Run(); err != nil {
			return fig11Record{}, fmt.Errorf("figures: fig11 %v run: %w", kind, err)
		}
		victim := x.LLCVictimSeries().Series()
		adv := x.LLCAdversarySeries().Series()
		rec := fig11Record{Victim: victim.Points, Adversary: adv.Points}
		horizon := cfg.Warmup + cfg.Duration
		buckets, err := victim.Resample(period, horizon)
		if err != nil {
			return fig11Record{}, err
		}
		// Skip the warmup buckets: the attack starts after warmup.
		skip := int(cfg.Warmup / period)
		lag := int(cfg.Attack.Params.Interval / period)
		if rec.Periodicity, err = monitor.Periodicity(buckets[skip:], lag); err != nil {
			return fig11Record{}, err
		}
		for _, p := range adv.Points {
			if p.V > rec.AdvMax {
				rec.AdvMax = p.V
			}
		}
		return rec, nil
	}, func(recs []fig11Record) (any, string, error) {
		for i, r := range runs {
			if err := writeSeries(opts.path(r.victim), recs[i].Victim); err != nil {
				return nil, "", err
			}
			if err := writeSeries(opts.path(r.advCSV), recs[i].Adversary); err != nil {
				return nil, "", err
			}
		}
		res := &Fig11Result{
			SaturationPeriodicity:  recs[0].Periodicity,
			LockPeriodicity:        recs[1].Periodicity,
			LockAdversaryMaxMisses: recs[1].AdvMax,
		}
		summary := fmt.Sprintf("LLC-miss periodicity at burst interval: saturation %.2f vs lock %.2f\nlocking adversary's own peak miss rate: %.0f misses/s (invisible)",
			res.SaturationPeriodicity, res.LockPeriodicity, res.LockAdversaryMaxMisses)
		return res, summary, nil
	}), nil
}
