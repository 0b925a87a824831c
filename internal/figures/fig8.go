package figures

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/core"
	"memca/internal/stats"
)

// Fig8Result captures the MemCA control framework experiment (the paper's
// Figure 8 architecture in action): the commander, starting from a weak
// parameterization and knowing nothing about the target, converges on the
// damage goal while honoring the stealth bound.
type Fig8Result struct {
	// Decisions is how many control epochs ran.
	Decisions int
	// FinalParams is where the commander settled.
	FinalParams attack.Params
	// FinalTailRT is the prober's final window percentile.
	FinalTailRT time.Duration
	// TimeToGoal is when the measured tail first reached the 1 s target
	// (0 if never). The commander then oscillates inside its hysteresis
	// band, so the final instant may sit below the target.
	TimeToGoal time.Duration
	// GoalReached reports the target was reached at least once.
	GoalReached bool
	// SustainedFraction is the fraction of post-goal decision epochs with
	// the tail still above half the target — sustained damage, not a
	// single spike.
	SustainedFraction float64
	// StealthHeld reports the final burst length stayed within the
	// millibottleneck bound.
	StealthHeld bool
}

func init() {
	registerDist(DistDriver{Name: "fig8", New: newFig8Run})
}

// fig8Record is the controlled run's verdict plus its per-epoch
// parameter/tail trajectory as CSV rows.
type fig8Record struct {
	Result     Fig8Result
	Trajectory [][]string
}

// newFig8Run prepares the Figure 8 driver: a single feedback-controlled
// attack run from a deliberately weak start.
func newFig8Run(opts Options) (*DistRun, error) {
	return newRun(1, func(a *stats.Arena, _ int) (fig8Record, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(6 * time.Minute)
		cfg.Arena = a
		cfg.Attack.Params = attack.Params{
			Intensity:   0.3,
			BurstLength: 60 * time.Millisecond,
			Interval:    4 * time.Second,
		}
		fb := control.DefaultConfig()
		fb.DecisionEvery = 5 * time.Second
		cfg.Feedback = &fb
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return fig8Record{}, fmt.Errorf("figures: fig8: %w", err)
		}

		// Record the trajectory every decision epoch.
		type sample struct {
			t      time.Duration
			params attack.Params
			tail   time.Duration
		}
		var traj []sample
		engine := x.Engine()
		var record func()
		record = func() {
			traj = append(traj, sample{
				t:      engine.Now(),
				params: x.Burster().Params(),
				tail:   x.Feedback().TailRT(),
			})
			if engine.Now() < cfg.Warmup+cfg.Duration {
				engine.Schedule(fb.DecisionEvery, record)
			}
		}
		engine.Schedule(cfg.Warmup, record)

		if _, err := x.Run(); err != nil {
			return fig8Record{}, fmt.Errorf("figures: fig8 run: %w", err)
		}

		rec := fig8Record{Result: Fig8Result{
			Decisions:   x.Feedback().Commander().Decisions(),
			FinalParams: x.Burster().Params(),
			FinalTailRT: x.Feedback().TailRT(),
		}}
		res := &rec.Result
		var post, sustained int
		for _, s := range traj {
			if res.TimeToGoal == 0 && s.tail >= fb.Goal.TargetRT {
				res.TimeToGoal = s.t
			}
			if res.TimeToGoal > 0 && s.t >= res.TimeToGoal {
				post++
				if s.tail >= fb.Goal.TargetRT/2 {
					sustained++
				}
			}
			rec.Trajectory = append(rec.Trajectory, []string{
				strconv.FormatFloat(s.t.Seconds(), 'f', 1, 64),
				strconv.FormatFloat(s.params.Intensity, 'f', 3, 64),
				strconv.FormatFloat(s.params.BurstLength.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(s.params.Interval.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(s.tail.Seconds()*1000, 'f', 1, 64),
			})
		}
		res.GoalReached = res.TimeToGoal > 0
		if post > 0 {
			res.SustainedFraction = float64(sustained) / float64(post)
		}
		res.StealthHeld = res.FinalParams.BurstLength <= fb.Goal.MaxMillibottleneck
		return rec, nil
	}, func(recs []fig8Record) (any, string, error) {
		if err := opts.writeCSV("fig8_controller.csv", []string{"t_s", "intensity", "burst_ms", "interval_ms", "tail_p95_ms"}, recs[0].Trajectory); err != nil {
			return nil, "", err
		}
		res := recs[0].Result
		summary := fmt.Sprintf("%d decisions, goal reached at t=%v, sustained %.0f%%, final params R=%.2f L=%v I=%v",
			res.Decisions, res.TimeToGoal.Round(time.Second), res.SustainedFraction*100,
			res.FinalParams.Intensity, res.FinalParams.BurstLength.Round(time.Millisecond),
			res.FinalParams.Interval.Round(time.Millisecond))
		return &res, summary, nil
	}), nil
}
