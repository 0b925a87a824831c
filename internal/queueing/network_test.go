package queueing

import (
	"math"
	"testing"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// singleTier returns a 1-tier network: queue limit q (Infinite allowed),
// servers s, exponential service with the given mean.
func singleTier(t *testing.T, e *sim.Engine, q, s int, mean time.Duration) *Network {
	t.Helper()
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "only", QueueLimit: q, Servers: s, Service: sim.NewExponential(mean)},
		},
		Classes: []Class{{Name: "basic", Depth: 0}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// keepBusyHistory turns on the transition history of tier i's busy
// integrator, which TierUtilization reads.
func keepBusyHistory(t *testing.T, n *Network, i int) {
	t.Helper()
	busy, err := n.TierBusy(i)
	if err != nil {
		t.Fatalf("TierBusy(%d): %v", i, err)
	}
	busy.KeepHistory()
}

// threeTier builds the standard test topology: Apache-like, Tomcat-like,
// MySQL-like with descending queue limits, deterministic or exponential
// service, and clients that retransmit under policy.
func threeTier(t *testing.T, e *sim.Engine, q1, q2, q3 int, det bool, policy RetransmitPolicy) *Network {
	t.Helper()
	mk := func(mean time.Duration) sim.Dist {
		if det {
			return sim.NewDeterministic(mean)
		}
		return sim.NewExponential(mean)
	}
	return threeTierNetwork(t, e, q1, q2, q3, mk, policy, nil)
}

// threeTierObserved is threeTier with exponential service and an
// observer.
func threeTierObserved(t *testing.T, e *sim.Engine, q1, q2, q3 int, policy RetransmitPolicy, obs Observer) *Network {
	t.Helper()
	mk := func(mean time.Duration) sim.Dist { return sim.NewExponential(mean) }
	return threeTierNetwork(t, e, q1, q2, q3, mk, policy, obs)
}

func threeTierNetwork(t *testing.T, e *sim.Engine, q1, q2, q3 int, mk func(time.Duration) sim.Dist, policy RetransmitPolicy, obs Observer) *Network {
	t.Helper()
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "apache", QueueLimit: q1, Servers: 2, Service: mk(400 * time.Microsecond)},
			{Name: "tomcat", QueueLimit: q2, Servers: 2, Service: mk(800 * time.Microsecond)},
			{Name: "mysql", QueueLimit: q3, Servers: 1, Service: mk(2 * time.Millisecond)},
		},
		Classes:    []Class{{Name: "full", Depth: 2}},
		Retransmit: policy,
		Observer:   obs,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	svc := sim.NewExponential(time.Millisecond)
	valid := Config{
		Arena:   stats.NewArena(),
		Mode:    ModeNTierRPC,
		Tiers:   []TierConfig{{Name: "a", QueueLimit: 10, Servers: 2, Service: svc}},
		Classes: []Class{{Name: "c", Depth: 0}},
	}
	if _, err := New(e, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := New(nil, valid); err == nil {
		t.Error("nil engine accepted")
	}

	bad := []Config{
		{Arena: valid.Arena, Mode: 0, Tiers: valid.Tiers, Classes: valid.Classes},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: nil, Classes: valid.Classes},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: []TierConfig{{Name: "a", QueueLimit: -1, Servers: 1, Service: svc}}, Classes: valid.Classes},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: []TierConfig{{Name: "a", QueueLimit: 1, Servers: 0, Service: svc}}, Classes: valid.Classes},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: []TierConfig{{Name: "a", QueueLimit: 1, Servers: 2, Service: svc}}, Classes: valid.Classes},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: []TierConfig{{Name: "a", QueueLimit: 1, Servers: 1}}, Classes: valid.Classes},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: nil},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: []Class{{Name: "c", Depth: 5}}},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: []Class{{Name: "c", Depth: 0, DemandScale: []float64{1, 2}}}},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: []Class{{Name: "c", Depth: 0, DemandScale: []float64{0}}}},
		{Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: valid.Classes}, // no arena
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: valid.Classes, Retransmit: RetransmitPolicy{RTOMin: time.Second, Backoff: 0.5}},
		{Arena: valid.Arena, Mode: ModeNTierRPC, Tiers: valid.Tiers, Classes: valid.Classes, Retransmit: RetransmitPolicy{Backoff: 2, MaxRetries: 1}},
	}
	for i, cfg := range bad {
		if _, err := New(e, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMM1MeanResponseTime(t *testing.T) {
	// M/M/1 with λ=50/s, μ=100/s: mean sojourn 1/(μ-λ) = 20 ms,
	// utilization 0.5.
	e := sim.NewEngine(7)
	n := singleTier(t, e, Infinite, 1, 10*time.Millisecond)
	keepBusyHistory(t, n, 0)
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 50})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	horizon := 400 * time.Second
	e.Run(horizon)
	src.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}

	mean := src.ClientRT().Mean()
	if mean < 17*time.Millisecond || mean > 23*time.Millisecond {
		t.Errorf("M/M/1 mean RT = %v, want ~20ms", mean)
	}
	util, err := n.TierUtilization(0, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if util < 0.45 || util > 0.55 {
		t.Errorf("M/M/1 utilization = %v, want ~0.5", util)
	}
	if n.Drops() != 0 {
		t.Errorf("infinite queue dropped %d requests", n.Drops())
	}
}

func TestMMcUtilization(t *testing.T) {
	// M/M/4 with λ=200/s, per-server μ=100/s: utilization 0.5.
	e := sim.NewEngine(11)
	n := singleTier(t, e, Infinite, 4, 10*time.Millisecond)
	keepBusyHistory(t, n, 0)
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 200})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	horizon := 200 * time.Second
	e.Run(horizon)
	src.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	util, err := n.TierUtilization(0, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if util < 0.45 || util > 0.55 {
		t.Errorf("M/M/4 utilization = %v, want ~0.5", util)
	}
	// With 4 servers, mean RT is close to the service time at ρ=0.5.
	mean := src.ClientRT().Mean()
	if mean < 10*time.Millisecond || mean > 13*time.Millisecond {
		t.Errorf("M/M/4 mean RT = %v, want ~10.6ms", mean)
	}
}

func TestThroughputEqualsArrivalWhenUnderloaded(t *testing.T) {
	e := sim.NewEngine(3)
	n := singleTier(t, e, Infinite, 1, time.Millisecond)
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 300})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	e.Run(100 * time.Second)
	src.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	got := float64(n.Completed()) / 100
	if got < 285 || got > 315 {
		t.Errorf("throughput %v req/s, want ~300", got)
	}
}

func TestFluidCapacityModulationExact(t *testing.T) {
	// Deterministic 100ms service; halve capacity at t=50ms: the request
	// has 50ms of work left, draining at 0.5, so it completes at 150ms.
	e := sim.NewEngine(1)
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "t", QueueLimit: Infinite, Servers: 1, Service: sim.NewDeterministic(100 * time.Millisecond)},
		},
		Classes: []Class{{Name: "c", Depth: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	if _, err := n.Submit(SubmitOpts{Class: 0, OnComplete: func(r *Request) { done = r.Done }}); err != nil {
		t.Fatal(err)
	}
	e.Schedule(50*time.Millisecond, func() {
		if err := n.SetCapacityMultiplier(0, 0.5); err != nil {
			t.Errorf("SetCapacityMultiplier: %v", err)
		}
	})
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if done != 150*time.Millisecond {
		t.Errorf("completion at %v, want 150ms", done)
	}
}

func TestFullStallFreezesService(t *testing.T) {
	// Stall to zero at 30ms, resume at 230ms: 70ms of work remains, so
	// completion lands at 300ms.
	e := sim.NewEngine(1)
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "t", QueueLimit: Infinite, Servers: 1, Service: sim.NewDeterministic(100 * time.Millisecond)},
		},
		Classes: []Class{{Name: "c", Depth: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	if _, err := n.Submit(SubmitOpts{Class: 0, OnComplete: func(r *Request) { done = r.Done }}); err != nil {
		t.Fatal(err)
	}
	e.Schedule(30*time.Millisecond, func() { _ = n.SetCapacityMultiplier(0, 0) })
	e.Schedule(230*time.Millisecond, func() { _ = n.SetCapacityMultiplier(0, 1) })
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if done != 300*time.Millisecond {
		t.Errorf("completion at %v, want 300ms", done)
	}
}

func TestTierRTOrderingPerRequest(t *testing.T) {
	// RPC semantics: the front tier's observed latency includes all
	// downstream time, so per request RT_1 >= RT_2 >= RT_3.
	e := sim.NewEngine(5)
	n := threeTier(t, e, 100, 50, 20, false, RetransmitPolicy{})
	var checked int
	for i := 0; i < 500; i++ {
		delay := time.Duration(i) * 3 * time.Millisecond
		e.Schedule(delay, func() {
			_, err := n.Submit(SubmitOpts{Class: 0, OnComplete: func(r *Request) {
				checked++
				if r.TierRT(0) < r.TierRT(1) || r.TierRT(1) < r.TierRT(2) {
					t.Errorf("tier RT ordering violated: %v %v %v", r.TierRT(0), r.TierRT(1), r.TierRT(2))
				}
			}})
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
	}
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if checked != 500 {
		t.Errorf("completed %d requests, want 500", checked)
	}
}

func TestSlotConservationAfterDrain(t *testing.T) {
	e := sim.NewEngine(9)
	n := threeTier(t, e, 40, 20, 8, false, DefaultRetransmit())
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 300})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	// Stall the bottleneck periodically to force overflow and drops.
	for i := 0; i < 5; i++ {
		start := time.Duration(i) * 2 * time.Second
		e.Schedule(start, func() { _ = n.SetCapacityMultiplier(2, 0.05) })
		e.Schedule(start+300*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
	}
	e.Run(12 * time.Second)
	src.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n.NumTiers(); i++ {
		st, err := n.TierState(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.InUse != 0 || st.Backlog != 0 || st.BusyStations != 0 {
			t.Errorf("tier %d not drained: %+v", i, st)
		}
	}
	if n.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain", n.InFlight())
	}
	// Every submitted attempt either completed, was retried, or failed.
	if src.Sent() != n.Completed()+src.Retransmissions()+src.Failures() {
		t.Errorf("attempt accounting broken: sent %d, completed %d, retrans %d, failures %d",
			src.Sent(), n.Completed(), src.Retransmissions(), src.Failures())
	}
	if n.Drops() == 0 {
		t.Error("expected front-tier drops under a stalled bottleneck")
	}
}

func TestCrossTierOverflowPropagation(t *testing.T) {
	// Stall the bottleneck completely and watch the queues fill from the
	// back tier toward the front (the paper's build-up stage).
	e := sim.NewEngine(13)
	n := threeTier(t, e, 60, 30, 10, false, RetransmitPolicy{})
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 400})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	e.Schedule(time.Second, func() { _ = n.SetCapacityMultiplier(2, 0) })

	fullAt := make([]time.Duration, 3)
	var check func()
	check = func() {
		limits := []int{60, 30, 10}
		for i := 0; i < 3; i++ {
			st, err := n.TierState(i)
			if err != nil {
				t.Fatal(err)
			}
			if fullAt[i] == 0 && st.InUse >= limits[i] {
				fullAt[i] = e.Now()
			}
		}
		if e.Now() < 4*time.Second {
			e.Schedule(5*time.Millisecond, check)
		}
	}
	e.Schedule(time.Second, check)
	e.Run(4 * time.Second)
	src.Stop()

	if fullAt[2] == 0 || fullAt[1] == 0 || fullAt[0] == 0 {
		t.Fatalf("queues never filled: %v", fullAt)
	}
	if !(fullAt[2] <= fullAt[1] && fullAt[1] <= fullAt[0]) {
		t.Errorf("overflow did not propagate back-to-front: mysql %v, tomcat %v, apache %v",
			fullAt[2], fullAt[1], fullAt[0])
	}
}

func TestTandemQueuesOnlyAtBottleneck(t *testing.T) {
	// In the tandem baseline the same stall keeps all queued work at the
	// last tier; upstream occupancy stays bounded by its own service.
	e := sim.NewEngine(13)
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeTandem,
		Tiers: []TierConfig{
			{Name: "apache", QueueLimit: Infinite, Servers: 2, Service: sim.NewExponential(400 * time.Microsecond)},
			{Name: "tomcat", QueueLimit: Infinite, Servers: 2, Service: sim.NewExponential(800 * time.Microsecond)},
			{Name: "mysql", QueueLimit: Infinite, Servers: 1, Service: sim.NewExponential(2 * time.Millisecond)},
		},
		Classes: []Class{{Name: "full", Depth: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 400})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	e.Schedule(time.Second, func() { _ = n.SetCapacityMultiplier(2, 0) })
	e.Run(3 * time.Second)

	front, err := n.TierState(0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := n.TierState(1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := n.TierState(2)
	if err != nil {
		t.Fatal(err)
	}
	if back.InUse < 500 {
		t.Errorf("stalled tandem bottleneck holds %d, want ~800 (2s * 400/s)", back.InUse)
	}
	if front.InUse > 20 || mid.InUse > 20 {
		t.Errorf("tandem upstream tiers accumulated work: apache %d, tomcat %d", front.InUse, mid.InUse)
	}
	src.Stop()
}

func TestFrontTierDropsAndRetransmission(t *testing.T) {
	// A tiny front queue under a hard stall forces drops; with RFC 6298
	// retransmission the client-perceived RT jumps past 1 second.
	e := sim.NewEngine(21)
	n := threeTier(t, e, 20, 10, 4, false, DefaultRetransmit())
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 300})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	// 500ms stall every 2s.
	for i := 0; i < 6; i++ {
		start := time.Duration(i)*2*time.Second + 500*time.Millisecond
		e.Schedule(start, func() { _ = n.SetCapacityMultiplier(2, 0.02) })
		e.Schedule(start+500*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
	}
	e.Run(13 * time.Second)
	src.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}

	if n.Drops() == 0 {
		t.Fatal("expected drops")
	}
	if src.Retransmissions() == 0 {
		t.Fatal("expected retransmissions")
	}
	// Retried requests carry at least one full RTO.
	if max := src.ClientRT().Max(); max < time.Second {
		t.Errorf("max client RT %v, want >= 1s (RTO floor)", max)
	}
}

func TestRetransmitDisabledCountsFailures(t *testing.T) {
	e := sim.NewEngine(2)
	n := singleTier(t, e, 2, 1, 50*time.Millisecond)
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 200})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	e.Run(2 * time.Second)
	src.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if src.Failures() == 0 {
		t.Error("overloaded loss system produced no failures")
	}
	if src.Retransmissions() != 0 {
		t.Error("retransmissions counted with policy disabled")
	}
}

func TestRetransmitPolicyRTO(t *testing.T) {
	p := DefaultRetransmit()
	if got := p.RTO(1); got != time.Second {
		t.Errorf("RTO(1) = %v, want 1s", got)
	}
	if got := p.RTO(3); got != 4*time.Second {
		t.Errorf("RTO(3) = %v, want 4s", got)
	}
	if got := p.RTO(0); got != time.Second {
		t.Errorf("RTO(0) = %v, want clamped 1s", got)
	}
	// Overflow guard.
	big := RetransmitPolicy{RTOMin: time.Second, Backoff: 10, MaxRetries: 100}
	if got := big.RTO(50); got <= 0 {
		t.Errorf("RTO(50) overflowed: %v", got)
	}
}

func TestDemandScale(t *testing.T) {
	// A class with 3x demand at tier 0 takes 3x the deterministic base.
	e := sim.NewEngine(1)
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "t", QueueLimit: Infinite, Servers: 1, Service: sim.NewDeterministic(10 * time.Millisecond)},
		},
		Classes: []Class{
			{Name: "light", Depth: 0},
			{Name: "heavy", Depth: 0, DemandScale: []float64{3}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lightRT, heavyRT time.Duration
	if _, err := n.Submit(SubmitOpts{Class: 0, OnComplete: func(r *Request) { lightRT = r.ClientRT() }}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Submit(SubmitOpts{Class: 1, OnComplete: func(r *Request) { heavyRT = r.ClientRT() }}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if lightRT != 10*time.Millisecond {
		t.Errorf("light RT = %v, want 10ms", lightRT)
	}
	if heavyRT != 30*time.Millisecond {
		t.Errorf("heavy RT = %v, want 30ms", heavyRT)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) (uint64, time.Duration) {
		e := sim.NewEngine(seed)
		n := threeTier(t, e, 60, 30, 10, false, DefaultRetransmit())
		src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 200})
		if err != nil {
			t.Fatal(err)
		}
		src.Start()
		e.Schedule(time.Second, func() { _ = n.SetCapacityMultiplier(2, 0.05) })
		e.Schedule(1500*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
		e.Run(5 * time.Second)
		src.Stop()
		if err := e.RunAll(0); err != nil {
			t.Fatal(err)
		}
		return n.Completed(), src.ClientRT().Percentile(99)
	}
	c1, p1 := run(42)
	c2, p2 := run(42)
	if c1 != c2 || p1 != p2 {
		t.Errorf("same seed diverged: (%d, %v) vs (%d, %v)", c1, p1, c2, p2)
	}
}

func TestAccessorsRejectOutOfRange(t *testing.T) {
	e := sim.NewEngine(1)
	n := singleTier(t, e, Infinite, 1, time.Millisecond)
	for _, i := range []int{-1, 1} {
		if err := n.SetCapacityMultiplier(i, 0.5); err == nil {
			t.Errorf("SetCapacityMultiplier(%d) accepted", i)
		}
		if _, err := n.CapacityMultiplier(i); err == nil {
			t.Errorf("CapacityMultiplier(%d) accepted", i)
		}
		if _, err := n.TierState(i); err == nil {
			t.Errorf("TierState(%d) accepted", i)
		}
		if _, err := n.TierRT(i); err == nil {
			t.Errorf("TierRT(%d) accepted", i)
		}
		if _, err := n.TierOccupancy(i); err == nil {
			t.Errorf("TierOccupancy(%d) accepted", i)
		}
		if _, err := n.TierBusy(i); err == nil {
			t.Errorf("TierBusy(%d) accepted", i)
		}
		if _, err := n.TierUtilization(i, 0, time.Second); err == nil {
			t.Errorf("TierUtilization(%d) accepted", i)
		}
		if _, err := n.TierName(i); err == nil {
			t.Errorf("TierName(%d) accepted", i)
		}
	}
	if _, err := n.Submit(SubmitOpts{Class: 7}); err == nil {
		t.Error("out-of-range class accepted")
	}
}

func TestSourceValidation(t *testing.T) {
	e := sim.NewEngine(1)
	n := singleTier(t, e, Infinite, 1, time.Millisecond)
	if _, err := NewPoissonSource(nil, SourceConfig{Class: 0, Rate: 1}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewPoissonSource(n, SourceConfig{Class: 5, Rate: 1}); err == nil {
		t.Error("bad class accepted")
	}
	if _, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestAnalyticalFillTimeAgreement(t *testing.T) {
	// Cross-validate the simulator against Equation 4: with the
	// bottleneck stalled to C_ON and Poisson arrivals at λ, the time to
	// fill Q_n slots should be about Q_n / (λ - C_ON).
	e := sim.NewEngine(31)
	const (
		qn     = 50
		lambda = 400.0
		cOFF   = 800.0 // servers=1, mean 1.25ms
		d      = 0.1
	)
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "front", QueueLimit: Infinite, Servers: 4, Service: sim.NewExponential(200 * time.Microsecond)},
			{Name: "db", QueueLimit: qn, Servers: 1, Service: sim.NewExponential(1250 * time.Microsecond)},
		},
		Classes: []Class{{Name: "c", Depth: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: lambda})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()

	var stallStart, fullAt time.Duration
	e.Schedule(2*time.Second, func() {
		stallStart = e.Now()
		_ = n.SetCapacityMultiplier(1, d)
	})
	var watch func()
	watch = func() {
		st, err := n.TierState(1)
		if err != nil {
			t.Fatal(err)
		}
		if fullAt == 0 && stallStart > 0 && st.InUse >= qn {
			fullAt = e.Now()
			return
		}
		e.Schedule(time.Millisecond, watch)
	}
	e.Schedule(2*time.Second, watch)
	e.Run(6 * time.Second)
	src.Stop()

	if fullAt == 0 {
		t.Fatal("bottleneck queue never filled")
	}
	got := (fullAt - stallStart).Seconds()
	want := qn / (lambda - d*cOFF)
	if math.Abs(got-want)/want > 0.35 {
		t.Errorf("fill time %.3fs, analytical %.3fs (Eq 4)", got, want)
	}
}

func TestModeString(t *testing.T) {
	if ModeNTierRPC.String() != "ntier-rpc" || ModeTandem.String() != "tandem" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}
