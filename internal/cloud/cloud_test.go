package cloud

import (
	"testing"
	"time"

	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

func TestPlatformPlacement(t *testing.T) {
	p := NewPlatform()
	if _, err := p.AddHost("host1", memmodel.XeonE5_2603v3()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddHost("host1", memmodel.XeonE5_2603v3()); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := p.AddHost("", memmodel.XeonE5_2603v3()); err == nil {
		t.Error("empty host ID accepted")
	}
	bad := memmodel.XeonE5_2603v3()
	bad.Packages = 0
	if _, err := p.AddHost("host2", bad); err == nil {
		t.Error("invalid host config accepted")
	}

	if err := p.Place("mysql", "host1", C3Large(), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Place("mysql", "host1", C3Large(), 0); err != nil {
		// placement is recorded once
	} else {
		t.Error("duplicate VM placement accepted")
	}
	if err := p.Place("x", "ghost", C3Large(), 0); err == nil {
		t.Error("unknown host accepted")
	}

	h, err := p.HostOf("mysql")
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != "host1" {
		t.Errorf("HostOf = %q, want host1", h.ID)
	}
	if _, err := p.HostOf("ghost"); err == nil {
		t.Error("unplaced VM accepted")
	}
	if len(p.Hosts()) != 1 {
		t.Errorf("Hosts() = %d, want 1", len(p.Hosts()))
	}
}

func TestCoLocation(t *testing.T) {
	p := NewPlatform()
	if _, err := p.AddHost("host1", memmodel.XeonE5_2603v3()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddHost("host2", memmodel.XeonE5_2603v3()); err != nil {
		t.Fatal(err)
	}
	if err := p.Place("mysql", "host2", C3Large(), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.CoLocate("adversary", "mysql", PrivateCloudVM(), 0); err != nil {
		t.Fatal(err)
	}
	advHost, err := p.HostOf("adversary")
	if err != nil {
		t.Fatal(err)
	}
	victimHost, err := p.HostOf("mysql")
	if err != nil {
		t.Fatal(err)
	}
	if advHost.ID != victimHost.ID {
		t.Errorf("adversary on %q, victim on %q: not co-located", advHost.ID, victimHost.ID)
	}
	// Both VMs visible to the shared memory model.
	if _, err := advHost.Mem.VM("adversary"); err != nil {
		t.Errorf("adversary not in memory model: %v", err)
	}
	if _, err := advHost.Mem.VM("mysql"); err != nil {
		t.Errorf("victim not in memory model: %v", err)
	}
	if err := p.CoLocate("adv2", "ghost", PrivateCloudVM(), 0); err == nil {
		t.Error("co-location with unplaced target accepted")
	}
	pls := p.Placements()
	if len(pls) != 2 {
		t.Errorf("placements = %d, want 2", len(pls))
	}
}

func TestInstanceTypes(t *testing.T) {
	if C3Large().VCPUs != 2 {
		t.Error("c3.large should have 2 vCPUs")
	}
	if PrivateCloudVM().VCPUs != 1 {
		t.Error("private VM should have 1 vCPU")
	}
}

func scalingFixture(t *testing.T, seed int64) (*sim.Engine, *queueing.Network, *queueing.Source) {
	t.Helper()
	e := sim.NewEngine(seed)
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "web", QueueLimit: queueing.Infinite, Servers: 2, Service: sim.NewExponential(4 * time.Millisecond)},
		},
		Classes: []queueing.Class{{Name: "c", Depth: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := queueing.NewPoissonSource(n, queueing.SourceConfig{Class: 0, Rate: 450})
	if err != nil {
		t.Fatal(err)
	}
	return e, n, src
}

func TestScalingGroupGrowsUnderSustainedLoad(t *testing.T) {
	// λ=450/s against 2 servers at 250/s each → 90% utilization:
	// the trigger must fire and the added instance must cut utilization.
	e, n, src := scalingFixture(t, 5)
	g, err := NewScalingGroup(ScalingGroupConfig{
		Engine:         e,
		Network:        n,
		Tier:           0,
		Trigger:        monitor.DefaultAutoScaler(),
		MaxInstances:   4,
		ProvisionDelay: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	g.Start()
	e.Run(10 * time.Minute)
	src.Stop()
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}

	if g.Instances() < 2 {
		t.Fatalf("fleet did not grow under 90%% load: %d instances", g.Instances())
	}
	if len(g.Events()) == 0 {
		t.Fatal("no scale events recorded")
	}
	// After scaling, late-window utilization drops below the trigger.
	lateFrom := 8 * time.Minute
	util, err := n.TierUtilization(0, lateFrom, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if util > 0.85 {
		t.Errorf("utilization after scale-out = %v, want below threshold", util)
	}
	scale, err := n.CapacityScale(0)
	if err != nil {
		t.Fatal(err)
	}
	if scale < 2 {
		t.Errorf("capacity scale = %v, want >= 2", scale)
	}
}

func TestScalingGroupIgnoresMemCABursts(t *testing.T) {
	// Moderate base load plus MemCA-style 500ms/2s full stalls: 1-minute
	// average utilization stays under 85%, so the fleet must not grow —
	// the elasticity bypass of Figure 10.
	e := sim.NewEngine(7)
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "db", QueueLimit: queueing.Infinite, Servers: 2, Service: sim.NewExponential(4 * time.Millisecond)},
		},
		Classes: []queueing.Class{{Name: "c", Depth: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := queueing.NewPoissonSource(n, queueing.SourceConfig{Class: 0, Rate: 200}) // 40% base
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewScalingGroup(ScalingGroupConfig{
		Engine:       e,
		Network:      n,
		Tier:         0,
		Trigger:      monitor.DefaultAutoScaler(),
		MaxInstances: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	g.Start()
	// MemCA bursts for the full horizon.
	var burst func(i int)
	burst = func(i int) {
		if i >= 300 {
			return
		}
		_ = n.SetCapacityMultiplier(0, 0.02)
		e.Schedule(500*time.Millisecond, func() { _ = n.SetCapacityMultiplier(0, 1) })
		e.Schedule(2*time.Second, func() { burst(i + 1) })
	}
	e.Schedule(0, func() { burst(0) })
	e.Run(8 * time.Minute)
	src.Stop()
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if g.Instances() != 1 {
		t.Errorf("MemCA bursts triggered scaling: %d instances", g.Instances())
	}
}

func TestScalingGroupValidation(t *testing.T) {
	e, n, _ := scalingFixture(t, 1)
	good := ScalingGroupConfig{
		Engine:       e,
		Network:      n,
		Tier:         0,
		Trigger:      monitor.DefaultAutoScaler(),
		MaxInstances: 2,
	}
	if _, err := NewScalingGroup(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Engine = nil
	if _, err := NewScalingGroup(bad); err == nil {
		t.Error("nil engine accepted")
	}
	bad = good
	bad.Network = nil
	if _, err := NewScalingGroup(bad); err == nil {
		t.Error("nil network accepted")
	}
	bad = good
	bad.Tier = 9
	if _, err := NewScalingGroup(bad); err == nil {
		t.Error("bad tier accepted")
	}
	bad = good
	bad.Trigger.Threshold = 0
	if _, err := NewScalingGroup(bad); err == nil {
		t.Error("bad trigger accepted")
	}
	bad = good
	bad.MaxInstances = 0
	if _, err := NewScalingGroup(bad); err == nil {
		t.Error("zero max accepted")
	}
	bad = good
	bad.ProvisionDelay = -time.Second
	if _, err := NewScalingGroup(bad); err == nil {
		t.Error("negative provision delay accepted")
	}
}

func TestCapacityScaleComposition(t *testing.T) {
	// Scale 2 with multiplier 0.5 should yield the full-rate completion
	// time: the knobs compose multiplicatively.
	e := sim.NewEngine(1)
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "t", QueueLimit: queueing.Infinite, Servers: 1, Service: sim.NewDeterministic(100 * time.Millisecond)},
		},
		Classes: []queueing.Class{{Name: "c", Depth: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetCapacityScale(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCapacityMultiplier(0, 0.5); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	if _, err := n.Submit(queueing.SubmitOpts{Class: 0, OnComplete: func(r *queueing.Request) { done = r.Done }}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if done != 100*time.Millisecond {
		t.Errorf("completion at %v, want 100ms (scale and multiplier cancel)", done)
	}
}
