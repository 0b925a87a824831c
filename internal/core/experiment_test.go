package core

import (
	"testing"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/memmodel"
	"memca/internal/monitor"
)

// fastConfig returns a reduced-horizon run that keeps the full client
// population dynamics (same offered load per tier) while staying quick.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 60 * time.Second
	cfg.Warmup = 10 * time.Second
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad env", func(c *Config) { c.Env = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -time.Second }},
		{"zero clients", func(c *Config) { c.Clients = 0 }},
		{"zero think", func(c *Config) { c.ThinkTime = 0 }},
		{"bad attack kind", func(c *Config) { c.Attack.Kind = 0 }},
		{"bad attack params", func(c *Config) { c.Attack.Params = attack.Params{} }},
		{"zero adversaries", func(c *Config) { c.Attack.AdversaryVMs = 0 }},
		{"feedback without attack", func(c *Config) {
			c.Attack = nil
			fb := control.DefaultConfig()
			c.Feedback = &fb
		}},
		{"bad feedback", func(c *Config) {
			fb := control.DefaultConfig()
			fb.DecisionEvery = 0
			c.Feedback = &fb
		}},
		{"bad scaling trigger", func(c *Config) {
			c.Scaling = &ScalingSpec{Trigger: monitor.AutoScalerConfig{}, MaxInstances: 2}
		}},
		{"zero scaling max", func(c *Config) {
			c.Scaling = &ScalingSpec{Trigger: monitor.DefaultAutoScaler(), MaxInstances: 0}
		}},
		{"negative llc period", func(c *Config) { c.LLCSamplePeriod = -time.Second }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if _, err := NewExperiment(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestBaselineRun(t *testing.T) {
	cfg := fastConfig()
	cfg.Attack = nil
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's baseline: every request within ~100 ms.
	if rep.Client.P95 > 100*time.Millisecond {
		t.Errorf("baseline client p95 = %v, want <= 100ms", rep.Client.P95)
	}
	if rep.Drops != 0 {
		t.Errorf("baseline dropped %d requests", rep.Drops)
	}
	if rep.GoalMet {
		t.Error("baseline cannot meet the damage goal")
	}
	if rep.Bursts != 0 || rep.AttackKind != "" {
		t.Error("baseline report carries attack fields")
	}
	// Moderate utilization at every granularity.
	for _, v := range rep.VictimUtilization {
		if v.Mean < 0.3 || v.Mean > 0.7 {
			t.Errorf("baseline mysql CPU @%v mean = %v, want moderate", v.Granularity, v.Mean)
		}
	}
}

func TestAttackRunMeetsDamageGoal(t *testing.T) {
	x, err := NewExperiment(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 headline: client p95 beyond 1 second.
	if !rep.GoalMet {
		t.Errorf("attack did not meet damage goal: client p95 = %v", rep.Client.P95)
	}
	if rep.Drops == 0 || rep.Retransmissions == 0 {
		t.Error("attack produced no drops/retransmissions")
	}
	if rep.Bursts < 25 {
		t.Errorf("only %d bursts in 60s at I=2s", rep.Bursts)
	}
	if rep.LastDegradation <= 0 || rep.LastDegradation >= 0.5 {
		t.Errorf("degradation index %v, want strong (well below 0.5)", rep.LastDegradation)
	}
	// Adversary duty matches L/I = 25%.
	if rep.AdversaryDuty < 0.2 || rep.AdversaryDuty > 0.3 {
		t.Errorf("adversary duty %v, want ~0.25", rep.AdversaryDuty)
	}
}

func TestTailAmplificationOrdering(t *testing.T) {
	x, err := NewExperiment(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tiers) != 3 {
		t.Fatalf("got %d tiers", len(rep.Tiers))
	}
	apache, tomcat, mysql := rep.Tiers[0].Summary, rep.Tiers[1].Summary, rep.Tiers[2].Summary
	// Figure 2: the tail amplifies from MySQL through Tomcat and Apache
	// to the client. Allow a tiny tolerance for class-mix dilution ties.
	tol := 5 * time.Millisecond
	if mysql.P95 > tomcat.P95+tol || tomcat.P95 > apache.P95+tol || apache.P95 > rep.Client.P95+tol {
		t.Errorf("p95 amplification violated: mysql %v, tomcat %v, apache %v, client %v",
			mysql.P95, tomcat.P95, apache.P95, rep.Client.P95)
	}
	// The client's tail is dominated by retransmissions: a visible jump
	// past every in-system tier.
	if rep.Client.P95 < 2*apache.P95 {
		t.Errorf("client p95 %v not well above apache %v (no retransmission amplification)",
			rep.Client.P95, apache.P95)
	}
	// Nonlinearity of the tail: p99 much larger than p50 under attack.
	if rep.Client.P99 < 10*rep.Client.P50 {
		t.Errorf("client tail not long: p50 %v, p99 %v", rep.Client.P50, rep.Client.P99)
	}
}

func TestStealthinessUnderCoarseMonitoring(t *testing.T) {
	x, err := NewExperiment(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	var coarse, fine *UtilizationView
	for i := range rep.VictimUtilization {
		v := &rep.VictimUtilization[i]
		switch v.Granularity {
		case monitor.GranularityCloud:
			coarse = v
		case monitor.GranularityFine:
			fine = v
		}
	}
	if coarse == nil || fine == nil {
		t.Fatal("missing utilization views")
	}
	// Figure 10: coarse monitoring sees a moderate flat signal below the
	// 85% scaling threshold; fine monitoring sees transient saturation.
	if coarse.Max > 0.85 {
		t.Errorf("1-min max utilization %v would trigger auto scaling", coarse.Max)
	}
	if fine.Max < 0.99 {
		t.Errorf("50ms max utilization %v, want ~1.0 (millibottlenecks visible)", fine.Max)
	}
}

func TestAttackBypassesElasticScaling(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 4 * time.Minute
	cfg.Scaling = &ScalingSpec{Trigger: monitor.DefaultAutoScaler(), MaxInstances: 4}
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ScaleEvents) != 0 {
		t.Errorf("MemCA triggered %d scale events", len(rep.ScaleEvents))
	}
	if rep.Instances != 1 {
		t.Errorf("fleet grew to %d under MemCA", rep.Instances)
	}
	// And the attack still did its damage while evading.
	if !rep.GoalMet {
		t.Errorf("attack failed its damage goal while evading: p95 = %v", rep.Client.P95)
	}
}

func TestFeedbackLoopReachesGoal(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 5 * time.Minute
	// Start far too weak; the commander must escalate to the goal.
	cfg.Attack.Params = attack.Params{
		Intensity:   0.3,
		BurstLength: 60 * time.Millisecond,
		Interval:    4 * time.Second,
	}
	fb := control.DefaultConfig()
	fb.DecisionEvery = 5 * time.Second
	cfg.Feedback = &fb
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := x.Feedback().Commander()
	if c.Decisions() < 10 {
		t.Errorf("only %d commander decisions in 5 minutes", c.Decisions())
	}
	if c.Escalations() == 0 {
		t.Error("commander never escalated from a weak start")
	}
	final := x.Burster().Params()
	if final.BurstLength <= cfg.Attack.Params.BurstLength {
		t.Errorf("burst length did not grow: %v", final.BurstLength)
	}
	// The prober must have seen the escalated tail.
	if x.Feedback().TailRT() == 0 {
		t.Error("the probe window is empty")
	}
	// Damage by the end of the run (last third) should be near goal:
	// check the smoothed estimate rather than the whole-run percentile,
	// which mixes in the weak early phase.
	if got := c.SmoothedTailRT(); got < 500*time.Millisecond {
		t.Errorf("smoothed tail RT %v, want approaching 1s", got)
	}
	_ = rep
}

// TestFeedbackDecisionZeroAllocs pins the simulated decision's allocation
// contract: once the engine's event pool is warm, a decision epoch (read
// the window, decide, retune the burster, schedule the next epoch)
// allocates nothing.
func TestFeedbackDecisionZeroAllocs(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = time.Hour
	fb := control.DefaultConfig()
	cfg.Feedback = &fb
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	every := fb.DecisionEvery
	x.engine.Schedule(every, x.decideFn)
	x.engine.Run(3 * every)
	if allocs := testing.AllocsPerRun(100, func() { x.engine.Run(x.engine.Now() + every) }); allocs != 0 {
		t.Errorf("a decision epoch allocates %v objects, want 0", allocs)
	}
	if got := x.loop.Commander().Decisions(); got != 104 {
		t.Errorf("%d decisions ran, want 104", got)
	}
}

func TestLLCProfiles(t *testing.T) {
	run := func(kind memmodel.AttackKind) (victim, adversary []float64) {
		cfg := fastConfig()
		cfg.Attack.Kind = kind
		cfg.LLCSamplePeriod = 50 * time.Millisecond
		x, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		for _, p := range x.LLCVictimSeries().Series().Points {
			victim = append(victim, p.V)
		}
		for _, p := range x.LLCAdversarySeries().Series().Points {
			adversary = append(adversary, p.V)
		}
		return victim, adversary
	}

	maxOf := func(vs []float64) float64 {
		m := 0.0
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}

	// Bus saturation: the adversary's misses spike hugely during bursts
	// and the victim's miss rate shows the attack (Figure 11a).
	satVictim, satAdv := run(memmodel.AttackBusSaturation)
	if maxOf(satAdv) < 1e7 {
		t.Errorf("saturating adversary max misses %v, want streaming-scale", maxOf(satAdv))
	}
	base := memmodel.EC2DedicatedHost().VictimBaselineMissRate
	if maxOf(satVictim) <= base {
		t.Error("bus saturation left no trace in victim LLC misses")
	}

	// Memory lock: near-invisible to the LLC profiler (Figure 11b).
	lockVictim, lockAdv := run(memmodel.AttackMemoryLock)
	if maxOf(lockAdv) > 1e5 {
		t.Errorf("locking adversary max misses %v, want negligible", maxOf(lockAdv))
	}
	if maxOf(lockVictim) > base {
		t.Errorf("memory lock inflated victim misses to %v", maxOf(lockVictim))
	}
}

func TestRunTwiceFails(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 5 * time.Second
	cfg.Warmup = time.Second
	cfg.Clients = 100
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestDeterministicReport(t *testing.T) {
	run := func() *Report {
		cfg := fastConfig()
		cfg.Duration = 20 * time.Second
		cfg.Clients = 500
		x, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Client.P95 != b.Client.P95 || a.Drops != b.Drops || a.Requests != b.Requests {
		t.Errorf("same seed diverged: %+v vs %+v", a.Client, b.Client)
	}
}

func TestPrivateCloudEnvironment(t *testing.T) {
	// Figure 2b: the private cloud shows the same attack impact.
	cfg := fastConfig()
	cfg.Env = EnvPrivateCloud
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GoalMet {
		t.Errorf("private-cloud attack p95 = %v, want > 1s", rep.Client.P95)
	}
	if rep.Env != "private-cloud" {
		t.Errorf("env label %q", rep.Env)
	}
}

func TestReportRender(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 10 * time.Second
	cfg.Clients = 200
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"client", "apache", "tomcat", "mysql", "memory-lock", "mysql CPU"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestReportPagesAndAnalyticalCheck(t *testing.T) {
	x, err := NewExperiment(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pages) != 9 {
		t.Fatalf("pages = %d, want 9", len(rep.Pages))
	}
	var total int
	for _, p := range rep.Pages {
		total += p.Summary.Count
	}
	if total != rep.Client.Count {
		t.Errorf("page counts sum to %d, client count %d", total, rep.Client.Count)
	}

	ac := rep.Analytical
	if ac == nil {
		t.Fatal("analytical check missing on an attacked run")
	}
	if ac.D <= 0 || ac.D >= 1 {
		t.Errorf("analytical D = %v", ac.D)
	}
	if !ac.QueuesAllFill {
		t.Error("model should predict full overflow for the default attack")
	}
	// The model's damage period must be positive and under the burst
	// length, and the millibottleneck must respect the stealth bound.
	if ac.DamagePeriod <= 0 || ac.DamagePeriod >= 500*time.Millisecond {
		t.Errorf("damage period %v out of (0, 500ms)", ac.DamagePeriod)
	}
	if ac.Millibottleneck >= time.Second {
		t.Errorf("millibottleneck %v, want sub-second", ac.Millibottleneck)
	}
	// And the measured drops corroborate the predicted hold-on stage.
	if rep.Drops == 0 {
		t.Error("predicted hold-on stage but measured no drops")
	}
}

func TestBaselineReportHasNoAnalyticalCheck(t *testing.T) {
	cfg := fastConfig()
	cfg.Attack = nil
	cfg.Duration = 20 * time.Second
	cfg.Clients = 500
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analytical != nil {
		t.Error("baseline report carries an analytical check")
	}
}

// TestHistoryIsAnObserver proves the opt-in transition history is a pure
// observer: keeping it on every tier integrator yields the same Report,
// byte for byte, as keeping only the victim busy history NewExperiment
// asks for.
func TestHistoryIsAnObserver(t *testing.T) {
	run := func(allTiers bool) string {
		x, err := NewExperiment(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := x.Network()
		for i := 0; allTiers && i < n.NumTiers(); i++ {
			occ, err := n.TierOccupancy(i)
			if err != nil {
				t.Fatal(err)
			}
			busy, err := n.TierBusy(i)
			if err != nil {
				t.Fatal(err)
			}
			occ.KeepHistory()
			busy.KeepHistory()
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		return reportFingerprint(t, rep)
	}
	if all, victim := run(true), run(false); all != victim {
		t.Errorf("history on every tier changed the report:\nall:    %.300s\nvictim: %.300s", all, victim)
	}
}
