package monitor

import (
	"fmt"
	"math"

	"memca/internal/stats"
)

// Detector inspects a sampled signal and reports alarms. Implementations
// model the provider- and user-centric interference detectors the paper's
// stealthiness evaluation bypasses.
type Detector interface {
	// Detect scans the buckets in time order and returns how many
	// alarms they raise.
	Detect(buckets []stats.Bucket) int
	// Name labels the detector in reports.
	Name() string
}

// ThresholdDetector alarms whenever a sampled mean exceeds a fixed level —
// the simplest provider-side check (e.g. "CPU above 90%").
type ThresholdDetector struct {
	// Threshold is the alarm level.
	Threshold float64
	// MinConsecutive requires this many successive breaching samples
	// (debouncing); 0 or 1 alarms on the first.
	MinConsecutive int
}

// Name implements Detector.
func (d ThresholdDetector) Name() string { return "threshold" }

// Detect implements Detector.
func (d ThresholdDetector) Detect(buckets []stats.Bucket) int {
	need := d.MinConsecutive
	if need < 1 {
		need = 1
	}
	alarms := 0
	run := 0
	for _, b := range buckets {
		if b.Mean > d.Threshold {
			run++
			if run >= need {
				alarms++
				run = 0
			}
		} else {
			run = 0
		}
	}
	return alarms
}

// EWMADetector alarms when an observation deviates from its exponentially
// weighted moving average by more than K running standard deviations — a
// user-centric anomaly detector in the style of DIAL/ICE.
type EWMADetector struct {
	// Alpha is the smoothing factor in (0, 1].
	Alpha float64
	// K is the deviation multiplier.
	K float64
	// Warmup is how many samples prime the baseline before alarms fire.
	Warmup int
}

// Name implements Detector.
func (d EWMADetector) Name() string { return "ewma" }

// Detect implements Detector.
func (d EWMADetector) Detect(buckets []stats.Bucket) int {
	if d.Alpha <= 0 || d.Alpha > 1 || len(buckets) == 0 {
		return 0
	}
	mean := stats.NewEWMA(d.Alpha)
	varEW := stats.NewEWMA(d.Alpha)
	alarms := 0
	for i, b := range buckets {
		if !mean.Primed() {
			mean.Add(b.Mean)
			varEW.Add(0)
			continue
		}
		prior := mean.Value()
		dev := b.Mean - prior
		sigma := math.Sqrt(varEW.Value())
		if i >= d.Warmup && sigma > 0 && math.Abs(dev) > d.K*sigma {
			alarms++
		}
		mean.Add(b.Mean)
		varEW.Add(dev * dev)
	}
	return alarms
}

// CUSUMDetector wraps the stats.CUSUM change detector: it alarms on a
// sustained upward shift of the signal, the provider-centric approach to
// catching slow interference.
type CUSUMDetector struct {
	// Target is the in-control mean.
	Target float64
	// Slack absorbs benign drift (k).
	Slack float64
	// DecisionThreshold is the alarm level (h).
	DecisionThreshold float64
}

// Name implements Detector.
func (d CUSUMDetector) Name() string { return "cusum" }

// Detect implements Detector.
func (d CUSUMDetector) Detect(buckets []stats.Bucket) int {
	c := stats.NewCUSUM(d.Target, d.Slack, d.DecisionThreshold)
	alarms := 0
	for _, b := range buckets {
		if c.Add(b.Mean) {
			alarms++
		}
	}
	return alarms
}

// Verify interface compliance.
var (
	_ Detector = ThresholdDetector{}
	_ Detector = EWMADetector{}
	_ Detector = CUSUMDetector{}
)

// Periodicity measures how strongly a series repeats at the given lag via
// the normalized autocorrelation of per-bucket means. It is the analysis
// behind Figure 11: the bus-saturation attack leaves a periodic LLC-miss
// signature at the burst interval, the memory-lock attack does not.
// It returns a value in [-1, 1]; above ~0.3 indicates visible periodicity.
func Periodicity(buckets []stats.Bucket, lag int) (float64, error) {
	if lag <= 0 {
		return 0, fmt.Errorf("monitor: lag must be positive, got %d", lag)
	}
	n := len(buckets)
	if n < lag+2 {
		return 0, fmt.Errorf("monitor: need more than %d buckets for lag %d, got %d", lag+2, lag, n)
	}
	mean := 0.0
	for _, b := range buckets {
		mean += b.Mean
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := buckets[i].Mean - mean
		den += d * d
	}
	if den == 0 {
		return 0, nil
	}
	for i := 0; i+lag < n; i++ {
		num += (buckets[i].Mean - mean) * (buckets[i+lag].Mean - mean)
	}
	return num / den, nil
}
