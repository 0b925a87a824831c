package control

import (
	"fmt"
	"slices"
	"time"

	"memca/internal/attack"
	"memca/internal/sim"
)

// Config parameterizes the feedback loop, simulated or live: the goal and
// search bounds of the commander, how often to probe, how many recent
// probes a decision reads, and how often to decide.
type Config struct {
	// Goal is the damage/stealth objective.
	Goal Goal
	// Bounds clamp the commander's search.
	Bounds Bounds
	// ProbePeriod separates probe requests (lightweight: one per second
	// by default, invisible against the legitimate load).
	ProbePeriod time.Duration
	// Window is how many recent probes a decision's percentile reads.
	Window int
	// DecisionEvery separates commander decisions.
	DecisionEvery time.Duration
}

// DefaultConfig returns the paper's goal: p95 above 1 s with
// millibottlenecks under 1 s, probed once a second over a 60-probe
// window and decided every 10 s.
func DefaultConfig() Config {
	return Config{
		Goal:          Goal{Percentile: 95, TargetRT: time.Second, MaxMillibottleneck: time.Second},
		Bounds:        DefaultBounds(),
		ProbePeriod:   time.Second,
		Window:        60,
		DecisionEvery: 10 * time.Second,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if err := c.Goal.Validate(); err != nil {
		return err
	}
	if err := c.Bounds.Validate(); err != nil {
		return err
	}
	switch {
	case c.ProbePeriod <= 0:
		return fmt.Errorf("control: ProbePeriod must be positive, got %v", c.ProbePeriod)
	case c.Window <= 0:
		return fmt.Errorf("control: Window must be positive, got %d", c.Window)
	case c.DecisionEvery <= 0:
		return fmt.Errorf("control: DecisionEvery must be positive, got %v", c.DecisionEvery)
	}
	return nil
}

// Loop is MemCA-BE's feedback loop (Section IV-C): probe response times
// go into a ring of the last Config.Window probes, and each decision
// hands the goal percentile of that ring and a millibottleneck estimate
// to the Commander. It reads no clock and is not safe for concurrent
// use: the simulation drives it from engine events, memcafw.Backend from
// its tickers under its own lock.
type Loop struct {
	cfg       Config
	commander *Commander

	ring    []time.Duration
	cursor  int
	filled  bool
	scratch []time.Duration // sorted in place by TailRT
}

// NewLoop validates cfg and builds a loop whose commander starts from
// initial.
func NewLoop(cfg Config, initial attack.Params) (*Loop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	commander, err := NewCommander(cfg.Goal, cfg.Bounds, initial)
	if err != nil {
		return nil, err
	}
	return &Loop{
		cfg:       cfg,
		commander: commander,
		ring:      make([]time.Duration, cfg.Window),
		scratch:   make([]time.Duration, cfg.Window),
	}, nil
}

// Commander exposes the decision maker.
func (l *Loop) Commander() *Commander { return l.commander }

// Record adds one probe response time to the window, evicting the oldest
// once the window is full.
//
//memca:hotpath
func (l *Loop) Record(rt time.Duration) {
	l.ring[l.cursor] = rt
	l.cursor++
	if l.cursor == len(l.ring) {
		l.cursor = 0
		l.filled = true
	}
}

// TailRT returns the goal percentile of the probes in the window, or 0
// before the first: stats.NearestRank's rank int(q*(n-1)), sorted in the
// loop's scratch slice so that a query allocates nothing.
//
//memca:hotpath
func (l *Loop) TailRT() time.Duration {
	n := l.cursor
	if l.filled {
		n = len(l.ring)
	}
	if n == 0 {
		return 0
	}
	sorted := l.scratch[:n]
	copy(sorted, l.ring[:n])
	slices.Sort(sorted)
	q := l.cfg.Goal.Percentile / 100
	return sorted[max(0, min(int(q*float64(n-1)), n-1))]
}

// Decide makes one decision from the window's tail and the
// millibottleneck estimate (zero when unknown) and returns the attack
// parameters to use from the next burst.
//
//memca:hotpath
func (l *Loop) Decide(millibottleneck time.Duration) attack.Params {
	return l.commander.Decide(l.TailRT(), millibottleneck)
}

// SubmitFunc issues one simulated probe request into the queueing network
// and invokes done with its response time (or a timeout surrogate).
type SubmitFunc func(done func(rt time.Duration))

// Prober is the simulation's probe clock: every Config.ProbePeriod of
// virtual time it submits one probe and records the response time into
// a Loop — MemCA-BE's view of the victim's tail.
type Prober struct {
	engine *sim.Engine
	period time.Duration
	submit SubmitFunc
	// done and next are the loop's Record and tick bound once, so a probe
	// passes and schedules them without allocating a closure or method
	// value.
	done func(rt time.Duration)
	next func()

	running bool
}

// NewProber builds a prober that records into loop; Start begins probing.
func NewProber(engine *sim.Engine, loop *Loop, submit SubmitFunc) (*Prober, error) {
	if engine == nil {
		return nil, fmt.Errorf("control: engine must not be nil")
	}
	if loop == nil {
		return nil, fmt.Errorf("control: loop must not be nil")
	}
	if submit == nil {
		return nil, fmt.Errorf("control: submit must not be nil")
	}
	p := &Prober{engine: engine, period: loop.cfg.ProbePeriod, submit: submit, done: loop.Record}
	p.next = p.tick
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
	p.engine.Schedule(p.period, p.next)
}
