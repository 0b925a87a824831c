package attack

import (
	"testing"
	"time"

	"memca/internal/memmodel"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

// recordingInjector logs burst edges for schedule assertions.
type recordingInjector struct {
	starts []time.Duration
	ends   []time.Duration
	engine *sim.Engine
	level  int
}

func (r *recordingInjector) BurstStart(float64) {
	r.starts = append(r.starts, r.engine.Now())
	r.level++
}

func (r *recordingInjector) BurstEnd() {
	r.ends = append(r.ends, r.engine.Now())
	r.level--
}

func TestParamsValidate(t *testing.T) {
	good := Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Intensity: 0, BurstLength: time.Second, Interval: 2 * time.Second},
		{Intensity: 1.5, BurstLength: time.Second, Interval: 2 * time.Second},
		{Intensity: 1, BurstLength: 0, Interval: 2 * time.Second},
		{Intensity: 1, BurstLength: time.Second, Interval: 0},
		{Intensity: 1, BurstLength: 3 * time.Second, Interval: 2 * time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestBursterSchedule(t *testing.T) {
	e := sim.NewEngine(1)
	rec := &recordingInjector{engine: e}
	b, err := NewBurster(e, stats.NewArena(), rec, Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	e.Run(7 * time.Second)
	b.Stop()

	if len(rec.starts) != 4 {
		t.Fatalf("got %d bursts in 7s with I=2s, want 4", len(rec.starts))
	}
	for i, s := range rec.starts {
		want := time.Duration(i) * 2 * time.Second
		if s != want {
			t.Errorf("burst %d started at %v, want %v", i, s, want)
		}
		if i < len(rec.ends) {
			if got := rec.ends[i] - s; got != 100*time.Millisecond {
				t.Errorf("burst %d lasted %v, want 100ms", i, got)
			}
		}
	}
	if rec.level != 0 {
		t.Errorf("unbalanced burst edges: level %d", rec.level)
	}
	if b.Bursts() != 4 {
		t.Errorf("Bursts() = %d, want 4", b.Bursts())
	}
}

func TestBursterStopEndsOpenBurst(t *testing.T) {
	e := sim.NewEngine(1)
	rec := &recordingInjector{engine: e}
	b, err := NewBurster(e, stats.NewArena(), rec, Params{Intensity: 1, BurstLength: 500 * time.Millisecond, Interval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	e.Run(100 * time.Millisecond) // mid-burst
	if rec.level == 0 {
		t.Fatal("expected an open burst at t=100ms")
	}
	b.Stop()
	if rec.level != 0 {
		t.Errorf("interference outlived Stop: level %d", rec.level)
	}
	// No further bursts after Stop.
	e.Run(10 * time.Second)
	if len(rec.starts) != 1 {
		t.Errorf("bursts after Stop: %d starts", len(rec.starts))
	}
}

func TestBursterRetuneAppliesNextBurst(t *testing.T) {
	e := sim.NewEngine(1)
	rec := &recordingInjector{engine: e}
	b, err := NewBurster(e, stats.NewArena(), rec, Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	e.Run(50 * time.Millisecond)
	if err := b.SetParams(Params{Intensity: 1, BurstLength: 300 * time.Millisecond, Interval: time.Second}); err != nil {
		t.Fatal(err)
	}
	e.Run(3 * time.Second)
	b.Stop()
	// Burst 0 keeps the old 100ms length; burst 1 onward uses 300ms.
	if got := rec.ends[0] - rec.starts[0]; got != 100*time.Millisecond {
		t.Errorf("burst 0 lasted %v, want 100ms (old params)", got)
	}
	if got := rec.ends[1] - rec.starts[1]; got != 300*time.Millisecond {
		t.Errorf("burst 1 lasted %v, want 300ms (new params)", got)
	}
	if err := b.SetParams(Params{Intensity: 0, BurstLength: time.Second, Interval: time.Second}); err == nil {
		t.Error("invalid retune accepted")
	}
}

func TestBursterBusySignal(t *testing.T) {
	e := sim.NewEngine(1)
	rec := &recordingInjector{engine: e}
	b, err := NewBurster(e, stats.NewArena(), rec, Params{Intensity: 1, BurstLength: 500 * time.Millisecond, Interval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	e.Run(8 * time.Second)
	b.Stop()
	// Average adversary activity = L/I = 25%.
	u := b.Busy().WindowAverage(0, 8*time.Second)
	if u < 0.24 || u > 0.26 {
		t.Errorf("adversary activity %v, want ~0.25", u)
	}
}

func TestNewBursterValidation(t *testing.T) {
	e := sim.NewEngine(1)
	rec := &recordingInjector{engine: e}
	ok := Params{Intensity: 1, BurstLength: time.Second, Interval: 2 * time.Second}
	a := stats.NewArena()
	if _, err := NewBurster(nil, a, rec, ok); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewBurster(e, nil, rec, ok); err == nil {
		t.Error("nil arena accepted")
	}
	if _, err := NewBurster(e, a, nil, ok); err == nil {
		t.Error("nil injector accepted")
	}
	if _, err := NewBurster(e, a, rec, Params{}); err == nil {
		t.Error("zero params accepted")
	}
}

func newTestNetwork(t *testing.T, e *sim.Engine) *queueing.Network {
	t.Helper()
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "front", QueueLimit: 50, Servers: 2, Service: sim.NewExponential(500 * time.Microsecond)},
			{Name: "db", QueueLimit: 10, Servers: 1, Service: sim.NewExponential(2 * time.Millisecond)},
		},
		Classes: []queueing.Class{{Name: "c", Depth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDirectInjector(t *testing.T) {
	e := sim.NewEngine(1)
	n := newTestNetwork(t, e)
	di, err := NewDirectInjector(n, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	di.BurstStart(1)
	if m, _ := n.CapacityMultiplier(1); m != 0.1 {
		t.Errorf("multiplier during burst = %v, want 0.1", m)
	}
	di.BurstEnd()
	if m, _ := n.CapacityMultiplier(1); m != 1 {
		t.Errorf("multiplier after burst = %v, want 1", m)
	}
}

func TestDirectInjectorValidation(t *testing.T) {
	e := sim.NewEngine(1)
	n := newTestNetwork(t, e)
	if _, err := NewDirectInjector(nil, 0, 0.5); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewDirectInjector(n, 5, 0.5); err == nil {
		t.Error("bad tier accepted")
	}
	if _, err := NewDirectInjector(n, 0, 1.5); err == nil {
		t.Error("bad D accepted")
	}
}

func buildHost(t *testing.T) (*memmodel.Host, *memmodel.VM, *memmodel.VM) {
	t.Helper()
	h, err := memmodel.NewHost(memmodel.XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	victim, err := h.AddVM(memmodel.VM{ID: "mysql", Package: 0})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := h.AddVM(memmodel.VM{ID: "adv", Package: 0})
	if err != nil {
		t.Fatal(err)
	}
	return h, victim, adv
}

func TestMemoryInjectorLockAttack(t *testing.T) {
	e := sim.NewEngine(1)
	n := newTestNetwork(t, e)
	h, _, _ := buildHost(t)
	mi, err := NewMemoryInjector(MemoryInjectorConfig{
		Host:         h,
		Kind:         memmodel.AttackMemoryLock,
		AdversaryVMs: []string{"adv"},
		VictimVM:     "mysql",
		Profile:      memmodel.MySQLProfile(),
		Network:      n,
		VictimTier:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Before any burst the victim runs at full capacity.
	if m, _ := n.CapacityMultiplier(1); m != 1 {
		t.Fatalf("pre-attack multiplier = %v, want 1", m)
	}
	mi.BurstStart(1)
	during, _ := n.CapacityMultiplier(1)
	if during >= 0.7 {
		t.Errorf("lock burst degraded capacity only to %v, want well below 0.7", during)
	}
	if mi.LastD != during {
		t.Errorf("LastD = %v, tier multiplier = %v", mi.LastD, during)
	}
	mi.BurstEnd()
	if m, _ := n.CapacityMultiplier(1); m != 1 {
		t.Errorf("post-burst multiplier = %v, want 1 (capacity recovers)", m)
	}
}

func TestMemoryInjectorLockStrongerThanStream(t *testing.T) {
	degradeWith := func(kind memmodel.AttackKind) float64 {
		e := sim.NewEngine(1)
		n := newTestNetwork(t, e)
		h, _, _ := buildHost(t)
		mi, err := NewMemoryInjector(MemoryInjectorConfig{
			Host:         h,
			Kind:         kind,
			AdversaryVMs: []string{"adv"},
			VictimVM:     "mysql",
			Profile:      memmodel.MySQLProfile(),
			Network:      n,
			VictimTier:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mi.BurstStart(1)
		return mi.LastD
	}
	lock := degradeWith(memmodel.AttackMemoryLock)
	stream := degradeWith(memmodel.AttackBusSaturation)
	if lock >= stream {
		t.Errorf("lock attack D=%v not stronger (lower) than stream D=%v", lock, stream)
	}
}

func TestMemoryInjectorIntensityScales(t *testing.T) {
	e := sim.NewEngine(1)
	n := newTestNetwork(t, e)
	h, _, _ := buildHost(t)
	mi, err := NewMemoryInjector(MemoryInjectorConfig{
		Host:         h,
		Kind:         memmodel.AttackMemoryLock,
		AdversaryVMs: []string{"adv"},
		VictimVM:     "mysql",
		Profile:      memmodel.MySQLProfile(),
		Network:      n,
		VictimTier:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mi.BurstStart(0.3)
	weak := mi.LastD
	mi.BurstEnd()
	mi.BurstStart(1)
	strong := mi.LastD
	mi.BurstEnd()
	if strong >= weak {
		t.Errorf("full-duty lock D=%v not below 30%%-duty D=%v", strong, weak)
	}
}

func TestMemoryInjectorValidation(t *testing.T) {
	e := sim.NewEngine(1)
	n := newTestNetwork(t, e)
	h, _, _ := buildHost(t)
	base := MemoryInjectorConfig{
		Host:         h,
		Kind:         memmodel.AttackMemoryLock,
		AdversaryVMs: []string{"adv"},
		VictimVM:     "mysql",
		Profile:      memmodel.MySQLProfile(),
		Network:      n,
		VictimTier:   1,
	}
	mutations := []struct {
		name   string
		mutate func(*MemoryInjectorConfig)
	}{
		{"nil host", func(c *MemoryInjectorConfig) { c.Host = nil }},
		{"nil network", func(c *MemoryInjectorConfig) { c.Network = nil }},
		{"bad kind", func(c *MemoryInjectorConfig) { c.Kind = 0 }},
		{"no adversaries", func(c *MemoryInjectorConfig) { c.AdversaryVMs = nil }},
		{"ghost adversary", func(c *MemoryInjectorConfig) { c.AdversaryVMs = []string{"ghost"} }},
		{"ghost victim", func(c *MemoryInjectorConfig) { c.VictimVM = "ghost" }},
		{"bad profile", func(c *MemoryInjectorConfig) { c.Profile = memmodel.VictimProfile{} }},
		{"bad tier", func(c *MemoryInjectorConfig) { c.VictimTier = 9 }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewMemoryInjector(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := NewMemoryInjector(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEndToEndBurstsDegradeTail(t *testing.T) {
	// The integration sanity check: with an attack on, the p99 of the
	// client RT must be far above the no-attack baseline.
	run := func(attackOn bool) time.Duration {
		e := sim.NewEngine(77)
		n := newTestNetwork(t, e)
		src, err := queueing.NewPoissonSource(n, queueing.SourceConfig{
			Class: 0, Rate: 300, Retransmit: queueing.DefaultRetransmit(),
		})
		if err != nil {
			t.Fatal(err)
		}
		src.Start()
		var b *Burster
		if attackOn {
			h, _, _ := buildHost(t)
			mi, err := NewMemoryInjector(MemoryInjectorConfig{
				Host:         h,
				Kind:         memmodel.AttackMemoryLock,
				AdversaryVMs: []string{"adv"},
				VictimVM:     "mysql",
				Profile:      memmodel.MySQLProfile(),
				Network:      n,
				VictimTier:   1,
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err = NewBurster(e, stats.NewArena(), mi, Params{Intensity: 1, BurstLength: 500 * time.Millisecond, Interval: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			b.Start()
		}
		e.Run(30 * time.Second)
		src.Stop()
		if b != nil {
			b.Stop()
		}
		if err := e.RunAll(0); err != nil {
			t.Fatal(err)
		}
		return src.ClientRT().Percentile(99)
	}
	baseline := run(false)
	attacked := run(true)
	if baseline > 100*time.Millisecond {
		t.Errorf("baseline p99 = %v, want under 100ms", baseline)
	}
	if attacked < 4*baseline {
		t.Errorf("attack p99 %v not well above baseline %v", attacked, baseline)
	}
}

func TestParamsJitterValidation(t *testing.T) {
	base := Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second}
	ok := base
	ok.Jitter = 0.5
	if err := ok.Validate(); err != nil {
		t.Errorf("valid jitter rejected: %v", err)
	}
	bad := base
	bad.Jitter = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
	bad = base
	bad.Jitter = 1
	if err := bad.Validate(); err == nil {
		t.Error("jitter 1 accepted")
	}
	// Jitter that can shrink the interval below the burst length.
	tight := Params{Intensity: 1, BurstLength: 1900 * time.Millisecond, Interval: 2 * time.Second, Jitter: 0.5}
	if err := tight.Validate(); err == nil {
		t.Error("interval-shrinking jitter accepted")
	}
}

func TestBursterJitterPreservesMeanRate(t *testing.T) {
	e := sim.NewEngine(3)
	rec := &recordingInjector{engine: e}
	b, err := NewBurster(e, stats.NewArena(), rec, Params{
		Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second, Jitter: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	e.Run(400 * time.Second)
	b.Stop()

	n := len(rec.starts)
	if n < 180 || n > 220 {
		t.Fatalf("got %d bursts in 400s at mean I=2s, want ~200", n)
	}
	// Gaps vary: the spread must be visible (CV > 0.1) and bounded by
	// the jitter window [1.4s, 2.6s].
	var minGap, maxGap time.Duration = 1 << 62, 0
	for i := 1; i < n; i++ {
		g := rec.starts[i] - rec.starts[i-1]
		if g < minGap {
			minGap = g
		}
		if g > maxGap {
			maxGap = g
		}
	}
	if minGap < 1390*time.Millisecond || maxGap > 2610*time.Millisecond {
		t.Errorf("gaps [%v, %v] outside the jitter window", minGap, maxGap)
	}
	if maxGap-minGap < 500*time.Millisecond {
		t.Errorf("gap spread %v too small for jitter 0.6", maxGap-minGap)
	}
}
