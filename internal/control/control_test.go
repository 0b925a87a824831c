package control

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"memca/internal/attack"
	"memca/internal/sim"
)

func TestKalmanValidation(t *testing.T) {
	if _, err := NewKalman1D(0, 1); err == nil {
		t.Error("zero process noise accepted")
	}
	if _, err := NewKalman1D(1, 0); err == nil {
		t.Error("zero measurement noise accepted")
	}
	if _, err := NewKalman1D(math.NaN(), 1); err == nil {
		t.Error("NaN accepted")
	}
}

func TestKalmanConvergesToConstant(t *testing.T) {
	kf, err := NewKalman1D(0.0001, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		kf.Update(5 + rng.NormFloat64())
	}
	if got := kf.Value(); got < 4.8 || got > 5.2 {
		t.Errorf("estimate %v, want ~5", got)
	}
	if kf.p >= 1 {
		t.Errorf("posterior variance %v not below measurement noise", kf.p)
	}
}

func TestKalmanTracksStep(t *testing.T) {
	kf, err := NewKalman1D(0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		kf.Update(1)
	}
	for i := 0; i < 100; i++ {
		kf.Update(10)
	}
	if got := kf.Value(); got < 9 {
		t.Errorf("estimate %v did not track the step to 10", got)
	}
}

func TestKalmanSmoothsNoise(t *testing.T) {
	kf, err := NewKalman1D(0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var rawVar, estVar float64
	var prevRaw, prevEst float64
	for i := 0; i < 5000; i++ {
		z := 3 + rng.NormFloat64()
		est := kf.Update(z)
		if i > 0 {
			rawVar += (z - prevRaw) * (z - prevRaw)
			estVar += (est - prevEst) * (est - prevEst)
		}
		prevRaw, prevEst = z, est
	}
	if estVar >= rawVar/10 {
		t.Errorf("filter output variation %v not well below input %v", estVar, rawVar)
	}
}

// TestProberWindowPercentile: probing at 0..25 s sends 26 probes of
// 1..26 ms into a 10-probe window, so the ring has wrapped and a
// decision's p95 reads only the last 10 (17..26 ms); over the whole
// history it would read 24 ms.
func TestProberWindowPercentile(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Window = 10
	loop, err := NewLoop(cfg, initialParams())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	submit := func(done func(time.Duration)) {
		i++
		done(time.Duration(i) * time.Millisecond)
	}
	p, err := NewProber(e, loop, submit)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	e.Run(25 * time.Second)
	p.Stop()
	e.Run(30 * time.Second)

	if i != 26 {
		t.Fatalf("prober submitted %d probes, want 26", i)
	}
	if got := loop.TailRT(); got != 25*time.Millisecond {
		t.Errorf("window p95 = %v, want 24ms (rank 8 of the last 10 probes)", got)
	}
}

// TestProberEmptyWindow: before any probe completes, the window's tail
// reads 0.
func TestProberEmptyWindow(t *testing.T) {
	e := sim.NewEngine(1)
	loop, err := NewLoop(DefaultConfig(), initialParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(e, loop, func(done func(time.Duration)) {})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	e.Run(5 * time.Second)
	if got := loop.TailRT(); got != 0 {
		t.Errorf("empty window tail = %v, want 0", got)
	}
}

func TestProberValidation(t *testing.T) {
	e := sim.NewEngine(1)
	loop, err := NewLoop(DefaultConfig(), initialParams())
	if err != nil {
		t.Fatal(err)
	}
	ok := func(done func(time.Duration)) { done(0) }
	if _, err := NewProber(nil, loop, ok); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewProber(e, nil, ok); err == nil {
		t.Error("nil loop accepted")
	}
	if _, err := NewProber(e, loop, nil); err == nil {
		t.Error("nil submit accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero goal", func(c *Config) { c.Goal = Goal{} }},
		{"inverted bounds", func(c *Config) { c.Bounds.MaxBurst = c.Bounds.MinBurst / 2 }},
		{"zero probe period", func(c *Config) { c.ProbePeriod = 0 }},
		{"zero window", func(c *Config) { c.Window = 0 }},
		{"zero decision every", func(c *Config) { c.DecisionEvery = 0 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", m.name)
		}
		if _, err := NewLoop(cfg, initialParams()); err == nil {
			t.Errorf("NewLoop accepted %s", m.name)
		}
	}
	if _, err := NewLoop(DefaultConfig(), attack.Params{}); err == nil {
		t.Error("NewLoop accepted zero initial parameters")
	}
}

func defaultGoal() Goal {
	return Goal{Percentile: 95, TargetRT: time.Second, MaxMillibottleneck: time.Second}
}

func initialParams() attack.Params {
	return attack.Params{Intensity: 0.5, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second}
}

func TestCommanderValidation(t *testing.T) {
	if _, err := NewCommander(Goal{}, DefaultBounds(), initialParams()); err == nil {
		t.Error("zero goal accepted")
	}
	if _, err := NewCommander(defaultGoal(), Bounds{}, initialParams()); err == nil {
		t.Error("zero bounds accepted")
	}
	if _, err := NewCommander(defaultGoal(), DefaultBounds(), attack.Params{}); err == nil {
		t.Error("zero params accepted")
	}
	bad := DefaultBounds()
	bad.MinBurst = 2 * bad.MinInterval
	if _, err := NewCommander(defaultGoal(), bad, initialParams()); err == nil {
		t.Error("contradictory bounds accepted")
	}
}

func TestCommanderEscalatesWhenUnderGoal(t *testing.T) {
	c, err := NewCommander(defaultGoal(), DefaultBounds(), initialParams())
	if err != nil {
		t.Fatal(err)
	}
	start := initialParams()
	var p attack.Params
	for i := 0; i < 20; i++ {
		p = c.Decide(200*time.Millisecond, 0)
	}
	if p.BurstLength <= start.BurstLength {
		t.Errorf("burst length did not grow: %v -> %v", start.BurstLength, p.BurstLength)
	}
	if c.Escalations() == 0 {
		t.Error("no escalations counted")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("commander produced invalid params: %v", err)
	}
}

func TestCommanderEscalationOrder(t *testing.T) {
	// Once L hits its cap, the commander shrinks I; once I hits its
	// floor, it raises intensity.
	c, err := NewCommander(defaultGoal(), DefaultBounds(), initialParams())
	if err != nil {
		t.Fatal(err)
	}
	under := 100 * time.Millisecond
	var p attack.Params
	for i := 0; i < 200; i++ {
		p = c.Decide(under, 0)
	}
	b := DefaultBounds()
	if p.BurstLength != b.MaxBurst {
		t.Errorf("burst length %v, want pinned at %v", p.BurstLength, b.MaxBurst)
	}
	if p.Interval != b.MinInterval {
		t.Errorf("interval %v, want pinned at %v", p.Interval, b.MinInterval)
	}
	if p.Intensity != 1 {
		t.Errorf("intensity %v, want pinned at 1", p.Intensity)
	}
	if p.BurstLength > p.Interval {
		t.Error("L > I invariant violated")
	}
}

func TestCommanderBacksOffWhenOvershooting(t *testing.T) {
	c, err := NewCommander(defaultGoal(), DefaultBounds(), attack.Params{
		Intensity: 1, BurstLength: 800 * time.Millisecond, Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p attack.Params
	for i := 0; i < 30; i++ {
		p = c.Decide(5*time.Second, 0)
	}
	if p.Intensity >= 1 && p.Interval <= time.Second {
		t.Errorf("no backoff despite 5x overshoot: %+v", p)
	}
	if c.Backoffs() == 0 {
		t.Error("no backoffs counted")
	}
}

func TestCommanderRespectsStealthBound(t *testing.T) {
	c, err := NewCommander(defaultGoal(), DefaultBounds(), attack.Params{
		Intensity: 1, BurstLength: 800 * time.Millisecond, Interval: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Millibottleneck over the bound: the burst must shrink even though
	// damage is below goal.
	p := c.Decide(100*time.Millisecond, 1500*time.Millisecond)
	if p.BurstLength >= 800*time.Millisecond {
		t.Errorf("burst did not shrink under stealth pressure: %v", p.BurstLength)
	}
}

func TestCommanderConvergesInClosedLoop(t *testing.T) {
	// Synthetic plant: tail RT grows with duty cycle and intensity.
	// tail = 4s * duty * intensity (plus noise): the commander should
	// settle around its 1s target without pinning at max pressure.
	c, err := NewCommander(defaultGoal(), DefaultBounds(), initialParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	plant := func(p attack.Params) time.Duration {
		duty := float64(p.BurstLength) / float64(p.Interval)
		rt := 4 * duty * p.Intensity // seconds
		rt *= 1 + 0.1*rng.NormFloat64()
		if rt < 0.05 {
			rt = 0.05
		}
		return time.Duration(rt * float64(time.Second))
	}
	p := initialParams()
	for i := 0; i < 300; i++ {
		p = c.Decide(plant(p), 0)
	}
	// Steady state: smoothed tail within [target, 1.8*target].
	tail := c.SmoothedTailRT()
	if tail < 800*time.Millisecond || tail > 2200*time.Millisecond {
		t.Errorf("closed loop settled at %v, want near 1-1.8s band", tail)
	}
}

// TestProberTickZeroAllocs pins the probe loop's allocation contract:
// once the engine's event pool is warm, a steady-state tick (submit, and
// schedule the next tick) allocates nothing.
func TestProberTickZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Window = 8
	loop, err := NewLoop(cfg, initialParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(e, loop, func(done func(time.Duration)) {})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	e.Run(10 * time.Second)
	if allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + time.Second) }); allocs != 0 {
		t.Errorf("a probe tick allocates %v objects, want 0", allocs)
	}
}

// TestLoopZeroAllocs pins the decision's allocation contract: recording a
// probe and deciding from a full, wrapped window allocate nothing.
func TestLoopZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 16
	loop, err := NewLoop(cfg, initialParams())
	if err != nil {
		t.Fatal(err)
	}
	rt := time.Millisecond
	step := func() {
		rt = rt*7%time.Second + time.Millisecond
		loop.Record(rt)
		loop.Decide(100 * time.Millisecond)
	}
	for i := 0; i < 3*cfg.Window; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a probe plus a decision allocate %v objects, want 0", allocs)
	}
}
