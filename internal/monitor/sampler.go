// Package monitor models the observation side of the paper's stealthiness
// study: utilization samplers at cloud-realistic granularities (50 ms,
// 1 s, 1 min), a CloudWatch-style auto-scaling trigger, provider- and
// user-centric interference detectors, and an OProfile-style LLC-miss
// profiler. The attack succeeds exactly when these instruments, at the
// granularity the cloud can afford, see nothing actionable.
package monitor

import (
	"fmt"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// Cloud-realistic sampling granularities (Section V-B).
const (
	// GranularityFine is the research-grade 50 ms sampling that exposes
	// millibottlenecks (Figure 10c).
	GranularityFine = 50 * time.Millisecond
	// GranularityUser is the 1 s sampling an attentive tenant can afford
	// (Figure 10b).
	GranularityUser = time.Second
	// GranularityCloud is CloudWatch's 1-minute period (Figure 10a).
	GranularityCloud = time.Minute
)

// UtilizationSource yields exact utilization over an arbitrary window; the
// queueing simulator's busy integrators satisfy it.
type UtilizationSource func(from, to time.Duration) float64

// Sampler resamples a utilization source at a fixed granularity, modelling
// what a monitoring agent of that period would report.
type Sampler struct {
	granularity time.Duration
	source      UtilizationSource
}

// NewSampler builds a sampler.
func NewSampler(granularity time.Duration, source UtilizationSource) (*Sampler, error) {
	if granularity <= 0 {
		return nil, fmt.Errorf("monitor: granularity must be positive, got %v", granularity)
	}
	if source == nil {
		return nil, fmt.Errorf("monitor: source must not be nil")
	}
	return &Sampler{granularity: granularity, source: source}, nil
}

// Collect returns one bucket per period over [0, horizon).
func (s *Sampler) Collect(horizon time.Duration) ([]stats.Bucket, error) {
	out := make([]stats.Bucket, 0, s.periods(horizon))
	err := s.Walk(horizon, func(b stats.Bucket) { out = append(out, b) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Walk calls visit with each period's bucket over [0, horizon), in
// order, for a reader that needs no bucket slice.
func (s *Sampler) Walk(horizon time.Duration, visit func(stats.Bucket)) error {
	if horizon <= 0 {
		return fmt.Errorf("monitor: horizon must be positive, got %v", horizon)
	}
	for i, n := 0, s.periods(horizon); i < n; i++ {
		from := time.Duration(i) * s.granularity
		to := from + s.granularity
		if to > horizon {
			to = horizon
		}
		u := s.source(from, to)
		visit(stats.Bucket{Start: from, Mean: u, Max: u, Min: u, Count: 1})
	}
	return nil
}

// periods is the number of buckets over [0, horizon), 0 for an empty
// horizon.
func (s *Sampler) periods(horizon time.Duration) int {
	if horizon <= 0 {
		return 0
	}
	return int((horizon + s.granularity - 1) / s.granularity)
}

// PeriodicSampler evaluates an instantaneous gauge on the simulation
// engine every period, for signals that must be observed live (e.g. LLC
// miss rates that depend on the attack phase).
type PeriodicSampler struct {
	engine  *sim.Engine
	period  time.Duration
	gauge   func() float64
	series  *stats.TimeSeries
	running bool
}

// NewPeriodicSampler builds a live sampler whose series is checked out of
// the run's arena a; Start begins sampling.
func NewPeriodicSampler(engine *sim.Engine, a *stats.Arena, name string, period time.Duration, gauge func() float64) (*PeriodicSampler, error) {
	if engine == nil {
		return nil, fmt.Errorf("monitor: engine must not be nil")
	}
	if a == nil {
		return nil, fmt.Errorf("monitor: arena must not be nil")
	}
	if period <= 0 {
		return nil, fmt.Errorf("monitor: period must be positive, got %v", period)
	}
	if gauge == nil {
		return nil, fmt.Errorf("monitor: gauge must not be nil")
	}
	return &PeriodicSampler{
		engine: engine,
		period: period,
		gauge:  gauge,
		series: a.TimeSeries(name),
	}, nil
}

// Start begins periodic sampling. It is idempotent while running.
func (p *PeriodicSampler) Start() {
	if p.running {
		return
	}
	p.running = true
	p.tick()
}

// Stop halts sampling after the current tick.
func (p *PeriodicSampler) Stop() { p.running = false }

func (p *PeriodicSampler) tick() {
	if !p.running {
		return
	}
	p.series.Add(p.engine.Now(), p.gauge())
	p.engine.Schedule(p.period, p.tick)
}

// Series returns the collected samples (shared; do not mutate).
func (p *PeriodicSampler) Series() *stats.TimeSeries { return p.series }
