package control

import (
	"fmt"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// SubmitFunc issues one lightweight probe request and invokes done with
// the observed response time when the reply (or a timeout surrogate)
// arrives. The MemCA backend plugs the target website's HTTP front door in
// here; the simulation plugs the queueing network's front tier.
type SubmitFunc func(done func(rt time.Duration))

// ProberConfig parameterizes the response-time prober.
type ProberConfig struct {
	// Period separates probe requests (lightweight: one per second by
	// default, invisible against the legitimate load).
	Period time.Duration
	// Window is how many recent probes percentile queries consider.
	Window int
}

// DefaultProberConfig returns a 1-second probe with a 60-sample window.
func DefaultProberConfig() ProberConfig {
	return ProberConfig{Period: time.Second, Window: 60}
}

// Prober periodically sends probe requests and answers percentile queries
// over the most recent window — MemCA-BE's view of the victim's tail.
type Prober struct {
	engine *sim.Engine
	cfg    ProberConfig
	submit SubmitFunc
	// done and next are record and tick bound once, so a probe passes
	// and schedules them without allocating a closure or method value.
	done func(rt time.Duration)
	next func()

	running bool
	ring    []time.Duration
	cursor  int
	filled  bool
}

// NewProber validates and builds a prober; Start begins probing.
func NewProber(engine *sim.Engine, cfg ProberConfig, submit SubmitFunc) (*Prober, error) {
	if engine == nil {
		return nil, fmt.Errorf("control: engine must not be nil")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("control: probe period must be positive, got %v", cfg.Period)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("control: probe window must be positive, got %d", cfg.Window)
	}
	if submit == nil {
		return nil, fmt.Errorf("control: submit must not be nil")
	}
	p := &Prober{
		engine: engine,
		cfg:    cfg,
		submit: submit,
		ring:   make([]time.Duration, cfg.Window),
	}
	p.done, p.next = p.record, p.tick
	return p, nil
}

// Start begins periodic probing. Idempotent while running.
func (p *Prober) Start() {
	if p.running {
		return
	}
	p.running = true
	p.tick()
}

// Stop halts probing after the in-flight probe.
func (p *Prober) Stop() { p.running = false }

func (p *Prober) tick() {
	if !p.running {
		return
	}
	p.submit(p.done)
	p.engine.Schedule(p.cfg.Period, p.next)
}

func (p *Prober) record(rt time.Duration) {
	p.ring[p.cursor] = rt
	p.cursor++
	if p.cursor == len(p.ring) {
		p.cursor = 0
		p.filled = true
	}
}

// Samples returns how many probes are currently in the window.
func (p *Prober) Samples() int {
	if p.filled {
		return len(p.ring)
	}
	return p.cursor
}

// Percentile returns the pct-th percentile of the current window, or 0
// with no samples.
func (p *Prober) Percentile(pct float64) time.Duration {
	return stats.NearestRank(p.ring[:p.Samples()], pct/100)
}
