package monitor

import (
	"fmt"
	"time"

	"memca/internal/stats"
)

// AutoScalerConfig models the AWS Auto Scaling trigger the paper tests
// against: scale out when the average CPU utilization of an instance
// exceeds a threshold for a number of consecutive CloudWatch periods.
type AutoScalerConfig struct {
	// Threshold is the utilization trigger (paper: 0.85).
	Threshold float64
	// Period is the evaluation window (CloudWatch: 1 minute).
	Period time.Duration
	// ConsecutivePeriods is how many breaching periods are required
	// before a scaling action fires (AWS default: 1).
	ConsecutivePeriods int
	// Cooldown suppresses new actions after one fires.
	Cooldown time.Duration
}

// DefaultAutoScaler returns the paper's setup: 85% average CPU over one
// 1-minute period, 5-minute cooldown.
func DefaultAutoScaler() AutoScalerConfig {
	return AutoScalerConfig{
		Threshold:          0.85,
		Period:             time.Minute,
		ConsecutivePeriods: 1,
		Cooldown:           5 * time.Minute,
	}
}

// Validate reports the first configuration error, or nil.
func (c AutoScalerConfig) Validate() error {
	switch {
	case c.Threshold <= 0 || c.Threshold > 1:
		return fmt.Errorf("monitor: Threshold must be in (0,1], got %v", c.Threshold)
	case c.Period <= 0:
		return fmt.Errorf("monitor: Period must be positive, got %v", c.Period)
	case c.ConsecutivePeriods <= 0:
		return fmt.Errorf("monitor: ConsecutivePeriods must be positive, got %d", c.ConsecutivePeriods)
	case c.Cooldown < 0:
		return fmt.Errorf("monitor: Cooldown must be non-negative, got %v", c.Cooldown)
	}
	return nil
}

// ScaleEvent is one scale-out decision.
type ScaleEvent struct {
	// At is when the trigger fired (the end of the breaching period).
	At time.Duration
	// Utilization is the breaching period's average.
	Utilization float64
}

// AutoScaler evaluates a utilization signal the way the cloud's trigger
// would.
type AutoScaler struct {
	cfg AutoScalerConfig
}

// NewAutoScaler validates and builds an auto scaler.
func NewAutoScaler(cfg AutoScalerConfig) (*AutoScaler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AutoScaler{cfg: cfg}, nil
}

// Evaluate resamples the source at the trigger's period over [0, horizon)
// and returns every scale-out action that would have fired.
func (a *AutoScaler) Evaluate(source UtilizationSource, horizon time.Duration) ([]ScaleEvent, error) {
	if source == nil {
		return nil, fmt.Errorf("monitor: source must not be nil")
	}
	sampler, err := NewSampler(a.cfg.Period, source)
	if err != nil {
		return nil, err
	}
	buckets, err := sampler.Collect(horizon)
	if err != nil {
		return nil, err
	}
	return a.EvaluateBuckets(buckets), nil
}

// EvaluateBuckets applies the trigger to pre-sampled periods.
func (a *AutoScaler) EvaluateBuckets(buckets []stats.Bucket) []ScaleEvent {
	var events []ScaleEvent
	trigger := NewTrigger(a.cfg)
	for _, b := range buckets {
		end := b.Start + a.cfg.Period
		if trigger.Breached(end, b.Mean) {
			trigger.Fire(end)
			events = append(events, ScaleEvent{At: end, Utilization: b.Mean})
		}
	}
	return events
}

// Trigger is the scale-out rule both the offline AutoScaler and the live
// cloud.ScalingGroup step, one evaluation period at a time: it fires once
// ConsecutivePeriods periods in a row breach the threshold, unless the
// cooldown after the last scale-out is still running.
type Trigger struct {
	cfg       AutoScalerConfig
	breaching int
	// quietUntil is the end of the cooldown; a period ending earlier
	// never fires.
	quietUntil time.Duration
}

// NewTrigger returns a trigger with no breaching period booked. cfg must
// be valid.
func NewTrigger(cfg AutoScalerConfig) Trigger { return Trigger{cfg: cfg} }

// Breached books the period ending at end, whose average utilization was
// util, and reports whether a scale-out should fire now. It commits
// nothing: a caller that acts calls Fire.
func (t *Trigger) Breached(end time.Duration, util float64) bool {
	if util > t.cfg.Threshold {
		t.breaching++
	} else {
		t.breaching = 0
	}
	return t.breaching >= t.cfg.ConsecutivePeriods && end >= t.quietUntil
}

// Fire commits a scale-out at end: the breach count restarts and the
// cooldown begins.
func (t *Trigger) Fire(end time.Duration) {
	t.breaching = 0
	t.quietUntil = end + t.cfg.Cooldown
}
