package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/core"
	"memca/internal/defense"
	"memca/internal/monitor"
	"memca/internal/stats"
)

// EvasionPoint is one jitter level's outcome.
type EvasionPoint struct {
	// Jitter is the interval randomization fraction.
	Jitter float64
	// ClientP95 is the damage (must survive jitter).
	ClientP95 time.Duration
	// Periodicity is the Figure 11-style autocorrelation of the victim's
	// CPU signal at the mean burst interval.
	Periodicity float64
	// Classified reports whether the defense classifier still calls the
	// detected millibottlenecks a pulsating attack.
	Classified bool
	// IntervalCV is the classifier's gap coefficient of variation.
	IntervalCV float64
}

// EvasionResult captures the detection-evasion arms race: randomizing the
// burst interval preserves the damage (the mean duty cycle is unchanged)
// while erasing the periodic autocorrelation signature the Figure 11
// analysis keys on. The episode-based classifier proves more robust: the
// burst-plus-RTO-echo structure keeps inter-episode gaps regular even
// under heavy jitter — evidence that millibottleneck *episode* detection,
// not spectral analysis, is the promising direction for the defense
// research the paper calls for.
type EvasionResult struct {
	Points []EvasionPoint
}

func init() {
	registerDist(DistDriver{Name: "evasion", New: newEvasionRun})
}

// newEvasionRun prepares the jitter-evasion driver: one attack run per
// interval-jitter level, each judged for damage and detectability inside
// its job.
func newEvasionRun(opts Options) (*DistRun, error) {
	jitters := []float64{0, 0.25, 0.5, 0.75}
	return newRun(len(jitters), func(a *stats.Arena, ji int) (EvasionPoint, error) {
		jitter := jitters[ji]
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(2 * time.Minute)
		cfg.Attack.Params.Jitter = jitter
		cfg.Arena = a
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return EvasionPoint{}, fmt.Errorf("figures: evasion jitter=%v: %w", jitter, err)
		}
		rep, err := x.Run()
		if err != nil {
			return EvasionPoint{}, fmt.Errorf("figures: evasion jitter=%v run: %w", jitter, err)
		}
		point := EvasionPoint{Jitter: jitter, ClientP95: rep.Client.P95}

		source := x.VictimCPU()

		// Figure 11-style periodicity of the CPU signal at the mean
		// interval.
		sampler, err := monitor.NewSampler(50*time.Millisecond, source)
		if err != nil {
			return EvasionPoint{}, err
		}
		buckets, err := sampler.Collect(cfg.Duration)
		if err != nil {
			return EvasionPoint{}, err
		}
		lag := int(cfg.Attack.Params.Interval / (50 * time.Millisecond))
		point.Periodicity, err = monitor.Periodicity(buckets, lag)
		if err != nil {
			return EvasionPoint{}, err
		}

		// Defense classifier verdict.
		det, err := defense.NewDetector(defense.DefaultDetector())
		if err != nil {
			return EvasionPoint{}, err
		}
		episodes, err := det.Detect(source, cfg.Duration)
		if err != nil {
			return EvasionPoint{}, err
		}
		verdict := defense.Classify(episodes, 5)
		point.Classified = verdict.PulsatingAttack
		point.IntervalCV = verdict.IntervalCV
		return point, nil
	}, func(points []EvasionPoint) (any, string, error) {
		lines := make([]string, 0, len(points))
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			lines = append(lines, fmt.Sprintf("jitter=%.2f  p95=%-9v periodicity=%.2f  gap-CV=%.2f  classified=%v",
				p.Jitter, p.ClientP95.Round(time.Millisecond), p.Periodicity, p.IntervalCV, p.Classified))
			rows = append(rows, []string{
				strconv.FormatFloat(p.Jitter, 'f', 2, 64),
				strconv.FormatFloat(p.ClientP95.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.Periodicity, 'f', 3, 64),
				strconv.FormatBool(p.Classified),
				strconv.FormatFloat(p.IntervalCV, 'f', 3, 64),
			})
		}
		if err := opts.writeCSV("evasion_jitter.csv", []string{"jitter", "client_p95_ms", "periodicity", "classified", "interval_cv"}, rows); err != nil {
			return nil, "", err
		}
		return &EvasionResult{Points: points}, strings.Join(lines, "\n"), nil
	}), nil
}
