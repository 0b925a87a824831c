package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/core"
	"memca/internal/monitor"
	"memca/internal/stats"
	"memca/internal/sweep"
	"memca/internal/telemetry"
)

// Detector-comparison scenario labels.
const (
	ScenarioAttack     = "attack"
	ScenarioClean      = "clean"
	ScenarioFlashCrowd = "flash-crowd"
)

// detectorMinCount is the eligibility floor for attribution windows: a
// window with fewer closed traces has a share one retransmitted straggler
// away from 1.0, so both the tuner and the detector skip it.
const detectorMinCount = 8

// DetectorCell is one (scenario, detector, granularity) cell of the grid.
type DetectorCell struct {
	Scenario    string
	Detector    string
	Granularity time.Duration
	Alarms      int
}

// DetectorTuning records the auto-tuned CPU-signal detectors for one
// monitoring granularity.
type DetectorTuning struct {
	Granularity time.Duration
	CPU         monitor.TunedCPUDetectors
}

// DetectorComparisonResult captures how the state-of-the-art interference
// detectors the paper cites (threshold, EWMA-anomaly, CUSUM change
// detection) and the attribution detector built on the tracer's feature
// stream fare across three scenarios: the MemCA attack, a clean baseline,
// and a benign flash crowd. It is the quantitative form of the Section V-B
// claim that the attack "escapes the state-of-the-art detection
// mechanisms" — and of its converse: the resource actually amplifying
// latency (retransmission wait) separates the attack from organic load.
type DetectorComparisonResult struct {
	Cells []DetectorCell
	// Tuning holds the auto-tuned CPU detectors per granularity,
	// calibrated on a seed-derived clean replication (most sensitive
	// settings that stay silent on it).
	Tuning []DetectorTuning
	// Attribution is the tuned feature detector; its threshold comes from
	// the ROC sweep over seed-derived labeled replications.
	Attribution monitor.AttributionDetector
	// ROC is the full threshold sweep behind the attribution tuning.
	ROC []monitor.ROCPoint
}

// detectorScenarios enumerates the grid's three scenarios.
var detectorScenarios = []struct {
	name   string
	attack bool
	flash  bool
}{
	{ScenarioAttack, true, false},
	{ScenarioClean, false, false},
	{ScenarioFlashCrowd, false, true},
}

// detectorGranularities are the grid's monitoring granularities, in
// record and CSV order.
var detectorGranularities = []time.Duration{monitor.GranularityUser, monitor.GranularityFine}

// detectorRecord is one scenario run's evidence, one entry per
// detectorGranularities element: the victim-tier CPU signal sampled as
// the CPU detectors see it, and the feature series the attribution
// detector consumes.
type detectorRecord struct {
	Buckets  [][]stats.Bucket
	Features []featuresRecord
}

// featuresRecord is a telemetry.FeatureSeries as plain record values.
type featuresRecord struct {
	Res, TailThreshold, Base time.Duration
	Windows                  []telemetry.WindowFeatures
}

// featureTrace is the tracing spec of the detection studies: streaming
// features at the given windows (tail threshold 1 s) and nothing else.
func featureTrace(windows ...time.Duration) *telemetry.Spec {
	spec := telemetry.DefaultSpec()
	spec.EventRing = 0
	spec.TailKeep = 0
	spec.HeadEvery = 0
	spec.HeadKeep = 0
	spec.FeatureWindows = windows
	spec.TailOver = time.Second
	return &spec
}

// captureFeatures copies a live feature series into a record.
func captureFeatures(fs *telemetry.FeatureSeries) featuresRecord {
	return featuresRecord{Res: fs.Res, TailThreshold: fs.TailThreshold, Base: fs.Base(), Windows: fs.Windows()}
}

// series rebuilds the recorded feature series.
func (r featuresRecord) series() *telemetry.FeatureSeries {
	fs := telemetry.RestoreFeatureSeries(r.Res, r.TailThreshold, r.Base, r.Windows)
	return &fs
}

// runDetectorScenario runs one scenario with feature tracing enabled and
// samples its evidence. The flash crowd raises the closed-loop population
// by 50% over the middle half of the run: enough to lift the 1 s CPU
// signal well above the clean band, while the queues (not drop cascades)
// absorb the surge — the benign overload a CPU detector cannot tell from
// an attack.
func runDetectorScenario(opts Options, a *stats.Arena, seed int64, attack, flash bool) (detectorRecord, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = opts.duration(2 * time.Minute)
	cfg.Arena = a
	if !attack {
		cfg.Attack = nil
	}
	cfg.Trace = featureTrace(monitor.GranularityFine, monitor.GranularityUser)

	var rec detectorRecord
	x, err := core.NewExperiment(cfg)
	if err != nil {
		return rec, err
	}
	if flash {
		surgeStart := cfg.Warmup + cfg.Duration/4
		surgeEnd := cfg.Warmup + 3*cfg.Duration/4
		crowd := cfg.Clients + cfg.Clients/2
		engine := x.Engine()
		engine.At(surgeStart, func() { x.Generator().SetPopulation(crowd, 5*time.Second) })
		engine.At(surgeEnd, func() { x.Generator().SetPopulation(cfg.Clients, 0) })
	}
	if _, err := x.Run(); err != nil {
		return rec, err
	}
	source := x.VictimCPU()
	for _, g := range detectorGranularities {
		sampler, err := monitor.NewSampler(g, source)
		if err != nil {
			return rec, err
		}
		buckets, err := sampler.Collect(cfg.Duration)
		if err != nil {
			return rec, err
		}
		rec.Buckets = append(rec.Buckets, buckets)
		rec.Features = append(rec.Features, captureFeatures(x.Tracer().FeaturesAt(g)))
	}
	return rec, nil
}

func init() {
	registerDist(DistDriver{Name: "detectors", New: newDetectorRun})
}

// newDetectorRun prepares the detector grid: three scenarios (attack,
// clean, flash crowd) × {tuned CPU detectors, attribution detector} ×
// {1 s, 50 ms}. Jobs 0-2 are tuning replications at seed-derived seeds,
// jobs 3-5 the evaluation runs at the figure seed; the tuners see only
// the tuning replications, so the evaluated alarms are out-of-sample.
func newDetectorRun(opts Options) (*DistRun, error) {
	n := len(detectorScenarios)
	return newRun(2*n, func(a *stats.Arena, i int) (detectorRecord, error) {
		scen := detectorScenarios[i%n]
		seed := opts.Seed
		label := "eval"
		if i < n {
			seed = sweep.DeriveSeed(opts.Seed, 100+i)
			label = "tuning"
		}
		rec, err := runDetectorScenario(opts, a, seed, scen.attack, scen.flash)
		if err != nil {
			return rec, fmt.Errorf("figures: detector comparison %s %s run: %w", scen.name, label, err)
		}
		return rec, nil
	}, func(recs []detectorRecord) (any, string, error) {
		for i, rec := range recs {
			if len(rec.Buckets) != len(detectorGranularities) || len(rec.Features) != len(detectorGranularities) {
				return nil, "", fmt.Errorf("figures: detector record %d covers %d/%d granularities, want %d",
					i, len(rec.Buckets), len(rec.Features), len(detectorGranularities))
			}
		}
		tune, eval := recs[:n], recs[n:]
		tuneAttack, tuneClean, tuneFlash := tune[0], tune[1], tune[2]
		res := &DetectorComparisonResult{}

		// Calibrate the CPU detectors per granularity on the clean tuning
		// replication's signal.
		cpuTuned := make([]monitor.TunedCPUDetectors, len(detectorGranularities))
		for gi, g := range detectorGranularities {
			tuned, err := monitor.TuneCPUDetectors(tuneClean.Buckets[gi])
			if err != nil {
				return nil, "", fmt.Errorf("figures: tuning CPU detectors at %v: %w", g, err)
			}
			cpuTuned[gi] = tuned
			res.Tuning = append(res.Tuning, DetectorTuning{Granularity: g, CPU: tuned})
		}

		// ROC-sweep the attribution threshold over the labeled tuning
		// replications, pooling both granularities so one threshold serves
		// the whole grid (the share is scale-free).
		pos := []*telemetry.FeatureSeries{}
		neg := []*telemetry.FeatureSeries{}
		for gi := range detectorGranularities {
			pos = append(pos, tuneAttack.Features[gi].series())
			neg = append(neg, tuneClean.Features[gi].series(), tuneFlash.Features[gi].series())
		}
		attribution, roc, err := monitor.TuneAttribution(pos, neg, detectorMinCount)
		if err != nil {
			return nil, "", fmt.Errorf("figures: tuning attribution detector: %w", err)
		}
		res.Attribution = attribution
		res.ROC = roc

		// Evaluate the grid on the out-of-sample runs.
		for si, scen := range detectorScenarios {
			rec := eval[si]
			for gi, g := range detectorGranularities {
				detectors := append(cpuTuned[gi].Detectors(),
					monitor.BridgeFeatures(attribution, rec.Features[gi].series()))
				for _, det := range detectors {
					res.Cells = append(res.Cells, DetectorCell{
						Scenario:    scen.name,
						Detector:    det.Name(),
						Granularity: g,
						Alarms:      det.Detect(rec.Buckets[gi]),
					})
				}
			}
		}

		rows := make([][]string, 0, len(res.Cells))
		lines := make([]string, 0, len(res.Cells)+1+len(res.Tuning))
		for _, c := range res.Cells {
			rows = append(rows, []string{c.Scenario, c.Detector, c.Granularity.String(), strconv.Itoa(c.Alarms)})
			lines = append(lines, fmt.Sprintf("%-12s %-10s @ %-5v alarms=%d", c.Scenario, c.Detector, c.Granularity, c.Alarms))
		}
		if err := opts.writeCSV("detector_comparison.csv", []string{"scenario", "detector", "granularity", "alarms"}, rows); err != nil {
			return nil, "", err
		}
		rows = make([][]string, 0, len(res.ROC))
		for _, p := range res.ROC {
			rows = append(rows, []string{
				strconv.FormatFloat(p.Threshold, 'f', 6, 64),
				strconv.Itoa(p.TP),
				strconv.Itoa(p.FP),
				strconv.FormatFloat(p.TPR, 'f', 4, 64),
				strconv.FormatFloat(p.FPR, 'f', 4, 64),
			})
		}
		if err := opts.writeCSV("detector_roc.csv", []string{"threshold", "tp", "fp", "tpr", "fpr"}, rows); err != nil {
			return nil, "", err
		}
		lines = append(lines, fmt.Sprintf("attribution threshold (ROC-tuned): retrans share > %.4f (min %d traces/window)",
			res.Attribution.ShareThreshold, res.Attribution.MinCount))
		for _, tn := range res.Tuning {
			lines = append(lines, fmt.Sprintf("tuned CPU @ %-5v threshold=%.2f ewma(K=%.0f,a=%.1f) cusum(target=%.2f,k=%.2f,h=%.1f)",
				tn.Granularity, tn.CPU.Threshold.Threshold, tn.CPU.EWMA.K, tn.CPU.EWMA.Alpha,
				tn.CPU.CUSUM.Target, tn.CPU.CUSUM.Slack, tn.CPU.CUSUM.DecisionThreshold))
		}
		return res, strings.Join(lines, "\n"), nil
	}), nil
}
