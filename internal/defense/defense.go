// Package defense explores the countermeasure space the paper's
// conclusion calls for: a fine-grained millibottleneck detector with an
// explicit overhead budget (the reason clouds don't already run one), an
// ON-OFF pattern classifier that attributes detected millibottlenecks to
// a pulsating attack, and an evaluation harness for the two isolation
// primitives modelled in memmodel (bandwidth reservation and split-lock
// protection) — which have the instructive asymmetry that partitioning
// stops bus saturation but not bus locks, while split-lock protection
// stops exactly the lock attack.
package defense

import (
	"fmt"
	"math"
	"time"

	"memca/internal/monitor"
)

// Millibottleneck is one detected transient saturation episode.
type Millibottleneck struct {
	// Start is when the saturation began.
	Start time.Duration
	// Length is how long it lasted.
	Length time.Duration
}

// DetectorConfig parameterizes the millibottleneck detector.
type DetectorConfig struct {
	// Granularity is the sampling period (fine: 50 ms).
	Granularity time.Duration
	// SaturationLevel is the utilization above which a window counts as
	// saturated.
	SaturationLevel float64
	// MinLength is the shortest episode worth reporting.
	MinLength time.Duration
	// PerSampleOverhead is the monitoring cost of one sample as a
	// fraction of one core-second (models the agent's CPU draw).
	PerSampleOverhead float64
}

// DefaultDetector returns a 50 ms detector flagging >=95% windows lasting
// at least 100 ms, with a per-sample cost calibrated so 1-second sampling
// costs ~0.005% and 50 ms sampling ~0.1% of a core.
func DefaultDetector() DetectorConfig {
	return DetectorConfig{
		Granularity:       50 * time.Millisecond,
		SaturationLevel:   0.95,
		MinLength:         100 * time.Millisecond,
		PerSampleOverhead: 5e-5,
	}
}

// Validate reports the first configuration error, or nil.
func (c DetectorConfig) Validate() error {
	switch {
	case c.Granularity <= 0:
		return fmt.Errorf("defense: Granularity must be positive, got %v", c.Granularity)
	case c.SaturationLevel <= 0 || c.SaturationLevel > 1:
		return fmt.Errorf("defense: SaturationLevel must be in (0,1], got %v", c.SaturationLevel)
	case c.MinLength < 0:
		return fmt.Errorf("defense: MinLength must be non-negative, got %v", c.MinLength)
	case c.PerSampleOverhead < 0:
		return fmt.Errorf("defense: PerSampleOverhead must be non-negative, got %v", c.PerSampleOverhead)
	}
	return nil
}

// OverheadFraction returns the monitoring cost as a fraction of one core:
// samples/second x per-sample cost. Providers budget under 1% (the paper
// cites Kambadur et al.), which rules out fine granularity fleet-wide and
// opens the MemCA window in the first place.
func (c DetectorConfig) OverheadFraction() float64 {
	return float64(time.Second) / float64(c.Granularity) * c.PerSampleOverhead
}

// Detector finds millibottlenecks in a utilization signal.
type Detector struct {
	cfg DetectorConfig
}

// NewDetector validates and builds a detector.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Detect samples the source over [0, horizon) at the detector's
// granularity and returns every saturation episode of at least MinLength.
func (d *Detector) Detect(source monitor.UtilizationSource, horizon time.Duration) ([]Millibottleneck, error) {
	sampler, err := monitor.NewSampler(d.cfg.Granularity, source)
	if err != nil {
		return nil, err
	}
	buckets, err := sampler.Collect(horizon)
	if err != nil {
		return nil, err
	}
	var out []Millibottleneck
	var openStart time.Duration
	open := false
	flush := func(end time.Duration) {
		if !open {
			return
		}
		open = false
		if length := end - openStart; length >= d.cfg.MinLength {
			out = append(out, Millibottleneck{Start: openStart, Length: length})
		}
	}
	// A single sub-threshold window inside a burst must not split the
	// episode in two; tolerate gaps up to two sampling periods.
	mergeGap := 2 * d.cfg.Granularity
	gap := time.Duration(0)
	for _, b := range buckets {
		if b.Mean >= d.cfg.SaturationLevel {
			if !open {
				open = true
				openStart = b.Start
			}
			gap = 0
			continue
		}
		if open {
			gap += d.cfg.Granularity
			if gap > mergeGap {
				flush(b.Start - gap + d.cfg.Granularity)
				gap = 0
			}
		}
	}
	flush(horizon - gap)
	return out, nil
}

// Classification summarizes what the detected episodes look like.
type Classification struct {
	// MeanLength and MeanInterval describe the ON-OFF pattern.
	MeanLength time.Duration
	//memca:keep TestDefenseEvaluation checks the detected episodes recur at burst spacing only through it
	MeanInterval time.Duration
	// IntervalCV is the coefficient of variation of inter-episode gaps:
	// a pulsating attack is near-periodic (CV << 1), organic load
	// spikes are not.
	IntervalCV float64
	// PulsatingAttack is the verdict: many near-periodic short episodes.
	// The gap CV threshold is deliberately loose (0.5): a MemCA attack's
	// footprint includes retransmission-echo millibottlenecks ~1 RTO
	// after each burst, which interleave with the bursts themselves.
	PulsatingAttack bool
}

// Classify inspects detected millibottlenecks for the MemCA signature:
// at least minEpisodes short episodes at near-regular intervals.
func Classify(episodes []Millibottleneck, minEpisodes int) Classification {
	var c Classification
	if len(episodes) == 0 {
		return c
	}
	var lengthSum time.Duration
	for _, e := range episodes {
		lengthSum += e.Length
	}
	c.MeanLength = lengthSum / time.Duration(len(episodes))

	if len(episodes) < 2 {
		return c
	}
	gaps := make([]float64, 0, len(episodes)-1)
	var gapSum float64
	for i := 1; i < len(episodes); i++ {
		g := (episodes[i].Start - episodes[i-1].Start).Seconds()
		gaps = append(gaps, g)
		gapSum += g
	}
	mean := gapSum / float64(len(gaps))
	c.MeanInterval = time.Duration(mean * float64(time.Second))
	var varSum float64
	for _, g := range gaps {
		varSum += (g - mean) * (g - mean)
	}
	if mean > 0 {
		c.IntervalCV = math.Sqrt(varSum/float64(len(gaps))) / mean
	}
	c.PulsatingAttack = len(episodes) >= minEpisodes && c.IntervalCV < 0.5 && c.MeanLength < time.Second
	return c
}
