package figures

import (
	"fmt"
	"time"

	"memca/internal/core"
	"memca/internal/monitor"
	"memca/internal/stats"
)

// Fig10Result captures Figure 10: the same MySQL CPU signal through
// 1-minute, 1-second, and 50-millisecond monitoring, plus the Auto
// Scaling verdict.
type Fig10Result struct {
	// MaxByGranularity maps granularity to the largest sampled
	// utilization.
	MaxByGranularity map[time.Duration]float64
	// MeanCoarse is the 1-minute average (flat and moderate).
	MeanCoarse float64
	// AutoScalingTriggered reports whether the 85%/1-min trigger fired.
	AutoScalingTriggered bool
	// ScaleEventsLive is the number of events from the live scaling
	// group during the run (must be 0 for the bypass claim).
	ScaleEventsLive int
}

func init() {
	registerDist(DistDriver{Name: "fig10", New: newFig10Run})
}

// fig10Views are the three monitoring granularities of Figure 10, with
// their CSVs, in summary order.
var fig10Views = []struct {
	g   time.Duration
	csv string
}{
	{monitor.GranularityCloud, "fig10a_cpu_1min.csv"},
	{monitor.GranularityUser, "fig10b_cpu_1s.csv"},
	{monitor.GranularityFine, "fig10c_cpu_50ms.csv"},
}

// fig10Record is the run's sampled views (one bucket list per
// fig10Views entry) plus the live and offline scaling verdicts.
type fig10Record struct {
	Views           [][]stats.Bucket
	ScaleEventsLive int
	Triggered       bool
}

// newFig10Run prepares the Figure 10 driver: the 3-minute attack with a
// live Auto Scaling group on MySQL; the job re-samples the exact busy
// signal at the three granularities and replays the offline trigger.
func newFig10Run(opts Options) (*DistRun, error) {
	return newRun(1, func(a *stats.Arena, _ int) (fig10Record, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(3 * time.Minute)
		cfg.Scaling = &core.ScalingSpec{Trigger: monitor.DefaultAutoScaler(), MaxInstances: 4}
		cfg.Arena = a
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return fig10Record{}, fmt.Errorf("figures: fig10: %w", err)
		}
		rep, err := x.Run()
		if err != nil {
			return fig10Record{}, fmt.Errorf("figures: fig10 run: %w", err)
		}
		rec := fig10Record{ScaleEventsLive: len(rep.ScaleEvents)}
		horizon := cfg.Duration
		source := x.VictimCPU()
		for _, v := range fig10Views {
			sampler, err := monitor.NewSampler(v.g, source)
			if err != nil {
				return fig10Record{}, err
			}
			buckets, err := sampler.Collect(horizon)
			if err != nil {
				return fig10Record{}, err
			}
			rec.Views = append(rec.Views, buckets)
		}
		// Offline trigger evaluation over the same signal.
		scaler, err := monitor.NewAutoScaler(monitor.DefaultAutoScaler())
		if err != nil {
			return fig10Record{}, err
		}
		events, err := scaler.Evaluate(source, horizon)
		if err != nil {
			return fig10Record{}, err
		}
		rec.Triggered = len(events) > 0
		return rec, nil
	}, func(recs []fig10Record) (any, string, error) {
		rec := recs[0]
		if len(rec.Views) != len(fig10Views) {
			return nil, "", fmt.Errorf("figures: fig10 record has %d views, want %d", len(rec.Views), len(fig10Views))
		}
		res := &Fig10Result{
			MaxByGranularity:     make(map[time.Duration]float64),
			AutoScalingTriggered: rec.Triggered,
			ScaleEventsLive:      rec.ScaleEventsLive,
		}
		line := "cpu max by granularity:"
		for i, v := range fig10Views {
			buckets := rec.Views[i]
			max, sum := 0.0, 0.0
			for _, b := range buckets {
				if b.Mean > max {
					max = b.Mean
				}
				sum += b.Mean
			}
			res.MaxByGranularity[v.g] = max
			if v.g == monitor.GranularityCloud && len(buckets) > 0 {
				res.MeanCoarse = sum / float64(len(buckets))
			}
			if err := writeBuckets(opts.path(v.csv), buckets); err != nil {
				return nil, "", err
			}
			line += fmt.Sprintf(" %v=%.0f%%", v.g, max*100)
		}
		summary := fmt.Sprintf("%s\n1-min mean %.0f%%; auto scaling triggered: %v (live events: %d)",
			line, res.MeanCoarse*100, res.AutoScalingTriggered, res.ScaleEventsLive)
		return res, summary, nil
	}), nil
}

// Fig10 runs the 3-minute attack with a live Auto Scaling group attached
// to MySQL and exports the three sampled views.
//
//memca:keep perfbench (a separate module) times this driver on fig-quick
func Fig10(opts Options) (*Fig10Result, error) { return runAs[*Fig10Result]("fig10", opts) }
