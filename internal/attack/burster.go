// Package attack implements the MemCA burst machinery: an ON-OFF scheduler
// with the paper's (R, L, I) parameters, and injectors that translate an ON
// burst into capacity degradation of the victim tier — either directly via
// the degradation index D (the model experiments of Figures 6 and 7) or
// through the memory-contention model (the end-to-end experiments of
// Figures 2 and 9).
package attack

import (
	"fmt"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// Params are the attack knobs of Equation (1): Effect = A(R, L, I).
type Params struct {
	// Intensity is R normalized to the attack program's maximum: for a
	// memory-lock attack it is the bus-lock duty cycle; for bus
	// saturation it is the fraction of the adversary core's streaming
	// capability used. In (0, 1].
	Intensity float64
	// BurstLength is L, the ON period.
	BurstLength time.Duration
	// Interval is I, the time between consecutive burst starts.
	Interval time.Duration
	// Jitter randomizes each cycle's interval uniformly over
	// [I*(1-Jitter/2), I*(1+Jitter/2)], preserving the mean rate. A
	// periodic attack leaves an autocorrelation signature in any metric
	// it modulates (the paper's Figure 11a); jitter is the attacker's
	// counter-move against periodicity-based detectors. In [0, 1).
	Jitter float64
}

// Validate reports the first parameter error, or nil.
func (p Params) Validate() error {
	switch {
	case p.Intensity <= 0 || p.Intensity > 1:
		return fmt.Errorf("attack: Intensity must be in (0,1], got %v", p.Intensity)
	case p.BurstLength <= 0:
		return fmt.Errorf("attack: BurstLength must be positive, got %v", p.BurstLength)
	case p.Interval <= 0:
		return fmt.Errorf("attack: Interval must be positive, got %v", p.Interval)
	case p.BurstLength > p.Interval:
		return fmt.Errorf("attack: BurstLength %v exceeds Interval %v", p.BurstLength, p.Interval)
	case p.Jitter < 0 || p.Jitter >= 1:
		return fmt.Errorf("attack: Jitter must be in [0,1), got %v", p.Jitter)
	case p.Jitter > 0 && time.Duration(float64(p.Interval)*(1-p.Jitter/2)) < p.BurstLength:
		return fmt.Errorf("attack: Jitter %v can shrink the interval below the burst length", p.Jitter)
	}
	return nil
}

// Injector receives burst edges. Implementations flip the contention state
// of the modelled host and/or the victim tier's capacity.
type Injector interface {
	// BurstStart begins interference with the given intensity.
	BurstStart(intensity float64)
	// BurstEnd removes the interference.
	BurstEnd()
}

// Burster drives an Injector in the paper's ON-OFF pattern. Parameters may
// be retuned between bursts (the feedback controller does exactly that).
type Burster struct {
	engine   *sim.Engine
	injector Injector
	params   Params
	pending  Params // applied at the next burst boundary when retune is set
	retune   bool

	running bool
	inBurst bool
	bursts  int

	// busy integrates the adversary VM's activity as a 0/1 level: 1
	// during ON bursts. This is what Figure 9a plots.
	busy *stats.LevelIntegrator

	// cycleFn and endFn are bound once so each burst cycle schedules
	// both flanks without materializing new closures.
	cycleFn func()
	endFn   func()
}

// NewBurster builds a burster whose activity integrator is checked out of
// the run's arena a. Start must be called to begin attacking.
func NewBurster(engine *sim.Engine, a *stats.Arena, injector Injector, params Params) (*Burster, error) {
	if engine == nil {
		return nil, fmt.Errorf("attack: engine must not be nil")
	}
	if a == nil {
		return nil, fmt.Errorf("attack: arena must not be nil")
	}
	if injector == nil {
		return nil, fmt.Errorf("attack: injector must not be nil")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	b := &Burster{
		engine:   engine,
		injector: injector,
		params:   params,
		busy:     a.LevelIntegrator(),
	}
	b.busy.KeepHistory()
	b.cycleFn = b.cycle
	b.endFn = func() {
		if b.inBurst {
			b.endBurst()
		}
	}
	return b, nil
}

// Params returns the parameters currently in force.
func (b *Burster) Params() Params { return b.params }

// SetParams retunes the attack from the next burst boundary; the current
// burst (if any) finishes under the old parameters.
func (b *Burster) SetParams(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	b.pending, b.retune = p, true
	return nil
}

// Bursts returns the number of bursts started.
func (b *Burster) Bursts() int { return b.bursts }

// Busy returns the adversary activity integrator (level 1 while a burst
// is ON, 0 otherwise). It keeps history, so any window from time 0 on can
// be read with WindowAverage.
func (b *Burster) Busy() *stats.LevelIntegrator { return b.busy }

// Start launches the ON-OFF cycle, with the first burst beginning
// immediately. It is idempotent while running.
func (b *Burster) Start() {
	if b.running {
		return
	}
	b.running = true
	b.cycle()
}

// Stop ends the attack after the current burst edge; a burst in progress
// is terminated immediately so no interference outlives Stop.
func (b *Burster) Stop() {
	if !b.running {
		return
	}
	b.running = false
	if b.inBurst {
		b.endBurst()
	}
}

func (b *Burster) cycle() {
	if !b.running {
		return
	}
	if b.retune {
		b.params, b.retune = b.pending, false
	}
	b.beginBurst()
	p := b.params
	b.engine.Schedule(p.BurstLength, b.endFn)
	next := p.Interval
	if p.Jitter > 0 {
		f := 1 - p.Jitter/2 + p.Jitter*b.engine.Rand().Float64()
		next = time.Duration(float64(p.Interval) * f)
	}
	b.engine.Schedule(next, b.cycleFn)
}

func (b *Burster) beginBurst() {
	b.inBurst = true
	b.bursts++
	b.busy.Set(b.engine.Now(), 1)
	b.injector.BurstStart(b.params.Intensity)
}

func (b *Burster) endBurst() {
	b.inBurst = false
	b.busy.Set(b.engine.Now(), 0)
	b.injector.BurstEnd()
}
