package control

import (
	"fmt"
	"time"

	"memca/internal/attack"
)

// Goal is the attacker's objective: push the measured percentile response
// time past TargetRT while each millibottleneck stays under the stealth
// bound.
type Goal struct {
	// Percentile is which tail to target (paper: 95).
	Percentile float64
	// TargetRT is the damage goal (paper: > 1 s).
	TargetRT time.Duration
	// MaxMillibottleneck is the stealth bound (paper: < 1 s).
	MaxMillibottleneck time.Duration
}

// Validate reports the first goal error, or nil.
func (g Goal) Validate() error {
	if g.Percentile <= 0 || g.Percentile >= 100 {
		return fmt.Errorf("control: percentile must be in (0,100), got %v", g.Percentile)
	}
	if g.TargetRT <= 0 {
		return fmt.Errorf("control: TargetRT must be positive, got %v", g.TargetRT)
	}
	if g.MaxMillibottleneck <= 0 {
		return fmt.Errorf("control: MaxMillibottleneck must be positive, got %v", g.MaxMillibottleneck)
	}
	return nil
}

// Bounds clamps the commander's search space.
type Bounds struct {
	// MinBurst and MaxBurst bound L.
	MinBurst, MaxBurst time.Duration
	// MinInterval and MaxInterval bound I.
	MinInterval, MaxInterval time.Duration
	// MinIntensity bounds R from below (R never exceeds 1).
	MinIntensity float64
}

// DefaultBounds returns the search space used in the evaluation: bursts of
// 50 ms to 800 ms, intervals of 1 s to 8 s.
func DefaultBounds() Bounds {
	return Bounds{
		MinBurst:     50 * time.Millisecond,
		MaxBurst:     800 * time.Millisecond,
		MinInterval:  time.Second,
		MaxInterval:  8 * time.Second,
		MinIntensity: 0.2,
	}
}

// Validate reports the first bounds error, or nil.
func (b Bounds) Validate() error {
	switch {
	case b.MinBurst <= 0 || b.MaxBurst < b.MinBurst:
		return fmt.Errorf("control: burst bounds invalid: [%v, %v]", b.MinBurst, b.MaxBurst)
	case b.MinInterval <= 0 || b.MaxInterval < b.MinInterval:
		return fmt.Errorf("control: interval bounds invalid: [%v, %v]", b.MinInterval, b.MaxInterval)
	case b.MinBurst > b.MinInterval:
		return fmt.Errorf("control: MinBurst %v exceeds MinInterval %v", b.MinBurst, b.MinInterval)
	case b.MinIntensity <= 0 || b.MinIntensity > 1:
		return fmt.Errorf("control: MinIntensity must be in (0,1], got %v", b.MinIntensity)
	}
	return nil
}

// Commander adjusts attack parameters from measurements: a Kalman filter
// smooths the tail-RT signal, then a bounded multiplicative law escalates
// (longer, denser, stronger bursts) while under the damage goal and backs
// off when the stealth bound is at risk or the damage goal is far
// overshot.
type Commander struct {
	goal   Goal
	bounds Bounds
	params attack.Params
	kf     *Kalman1D

	decisions int
	escalated int
	backedOff int
}

// NewCommander builds a commander starting from the given parameters.
func NewCommander(goal Goal, bounds Bounds, initial attack.Params) (*Commander, error) {
	if err := goal.Validate(); err != nil {
		return nil, err
	}
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	// Noise scales chosen for seconds-valued RT signals: the tail moves
	// slowly between epochs (q) and individual windows are noisy (r).
	kf, err := NewKalman1D(0.01, 0.04)
	if err != nil {
		return nil, err
	}
	return &Commander{goal: goal, bounds: bounds, params: initial, kf: kf}, nil
}

// Decisions returns how many observations have been processed.
func (c *Commander) Decisions() int { return c.decisions }

// Escalations returns how many decisions increased attack pressure.
func (c *Commander) Escalations() int { return c.escalated }

// Backoffs returns how many decisions decreased attack pressure.
func (c *Commander) Backoffs() int { return c.backedOff }

// Params returns the parameters of the latest decision, or the initial
// ones before the first.
func (c *Commander) Params() attack.Params { return c.params }

// SmoothedTailRT returns the Kalman estimate of the tail response time.
func (c *Commander) SmoothedTailRT() time.Duration {
	return time.Duration(c.kf.Value() * float64(time.Second))
}

// Decide ingests one decision epoch's measurements and returns the
// parameters to use from the next burst: tailRT is the measured
// percentile response time, and millibottleneck the estimated
// millibottleneck length (the attack program's execution time), zero
// when unknown.
func (c *Commander) Decide(tailRT, millibottleneck time.Duration) attack.Params {
	c.decisions++
	smoothed := c.kf.Update(tailRT.Seconds())
	tail := time.Duration(smoothed * float64(time.Second))

	p := c.params

	// Stealth has priority: if the millibottleneck approaches the bound,
	// shorten the burst regardless of damage.
	if millibottleneck > 0 && millibottleneck > c.goal.MaxMillibottleneck {
		p.BurstLength = clampDuration(scaleDuration(p.BurstLength, 0.7), c.bounds.MinBurst, c.bounds.MaxBurst)
		c.backedOff++
		c.params = c.clamp(p)
		return c.params
	}

	switch {
	case tail < c.goal.TargetRT:
		// Under the damage goal: escalate intensity first (a stronger
		// burst deepens the millibottleneck without lengthening the
		// attack footprint), then burst length, then burst density.
		c.escalated++
		switch {
		case p.Intensity < 1:
			p.Intensity *= 1.4
		case p.BurstLength < c.bounds.MaxBurst:
			p.BurstLength = scaleDuration(p.BurstLength, 1.3)
		case p.Interval > c.bounds.MinInterval:
			p.Interval = scaleDuration(p.Interval, 0.8)
		}
	case tail > scaleDuration(c.goal.TargetRT, 1.8):
		// Far past the goal: recover stealth margin.
		c.backedOff++
		switch {
		case p.Intensity > c.bounds.MinIntensity:
			p.Intensity *= 0.85
		case p.Interval < c.bounds.MaxInterval:
			p.Interval = scaleDuration(p.Interval, 1.2)
		default:
			p.BurstLength = scaleDuration(p.BurstLength, 0.85)
		}
	}
	c.params = c.clamp(p)
	return c.params
}

// clamp forces parameters into the bounds and the L <= I invariant.
func (c *Commander) clamp(p attack.Params) attack.Params {
	p.BurstLength = clampDuration(p.BurstLength, c.bounds.MinBurst, c.bounds.MaxBurst)
	p.Interval = clampDuration(p.Interval, c.bounds.MinInterval, c.bounds.MaxInterval)
	if p.BurstLength > p.Interval {
		p.BurstLength = p.Interval
	}
	if p.Intensity < c.bounds.MinIntensity {
		p.Intensity = c.bounds.MinIntensity
	}
	if p.Intensity > 1 {
		p.Intensity = 1
	}
	return p
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
