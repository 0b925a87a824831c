package stats

import "math"

// EWMA is an exponentially weighted moving average, one of the smoothing
// primitives behind the interference detectors.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent observations more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic("stats: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Add feeds one observation and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one observation has been fed.
func (e *EWMA) Primed() bool { return e.primed }

// CUSUM is a one-sided cumulative-sum change detector: it alarms when the
// positive drift of (x - target - slack) exceeds the decision threshold.
// Used by the monitor package to model a sensitive provider-side detector.
type CUSUM struct {
	target    float64
	slack     float64
	threshold float64
	sum       float64
}

// NewCUSUM returns a detector around the given target level. slack (k)
// absorbs benign drift; threshold (h) sets the alarm level.
func NewCUSUM(target, slack, threshold float64) *CUSUM {
	return &CUSUM{target: target, slack: slack, threshold: threshold}
}

// Add feeds one observation and reports whether the detector alarms on it.
// After an alarm the statistic resets, modelling a re-armed detector.
func (c *CUSUM) Add(x float64) bool {
	c.sum += x - c.target - c.slack
	if c.sum < 0 {
		c.sum = 0
	}
	if c.sum > c.threshold {
		c.sum = 0
		return true
	}
	return false
}
