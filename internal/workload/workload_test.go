package workload

import (
	"math/rand"
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

func rubbosNetwork(t *testing.T, e *sim.Engine) *queueing.Network {
	t.Helper()
	n, err := queueing.New(e, queueing.Config{
		Arena:   stats.NewArena(),
		Mode:    queueing.ModeNTierRPC,
		Tiers:   RUBBoSTiers(),
		Classes: RUBBoSClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRUBBoSProfileValid(t *testing.T) {
	p := RUBBoSProfile()
	if err := p.Validate(len(RUBBoSClasses())); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
}

func TestRUBBoSTiersSatisfyCondition1(t *testing.T) {
	tiers := RUBBoSTiers()
	for i := 1; i < len(tiers); i++ {
		if tiers[i-1].QueueLimit <= tiers[i].QueueLimit {
			t.Errorf("queue limits not descending: %s %d <= %s %d",
				tiers[i-1].Name, tiers[i-1].QueueLimit, tiers[i].Name, tiers[i].QueueLimit)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	base := RUBBoSProfile()
	nc := len(RUBBoSClasses())

	p := base
	p.Pages = nil
	if err := p.Validate(nc); err == nil {
		t.Error("empty pages accepted")
	}

	p = base
	p.Pages = append([]PageSpec(nil), base.Pages...)
	p.Pages[0].Class = 99
	if err := p.Validate(nc); err == nil {
		t.Error("bad class accepted")
	}

	p = base
	p.Transitions = base.Transitions[:3]
	if err := p.Validate(nc); err == nil {
		t.Error("short transition matrix accepted")
	}

	p = base
	rows := make([][]float64, len(base.Transitions))
	copy(rows, base.Transitions)
	badRow := append([]float64(nil), base.Transitions[0]...)
	badRow[0] += 0.5
	rows[0] = badRow
	p.Transitions = rows
	if err := p.Validate(nc); err == nil {
		t.Error("non-stochastic row accepted")
	}

	p = base
	init := append([]float64(nil), base.Initial...)
	init[0] = -0.1
	p.Initial = init
	if err := p.Validate(nc); err == nil {
		t.Error("negative initial accepted")
	}
}

func TestGeneratorValidation(t *testing.T) {
	e := sim.NewEngine(1)
	n := rubbosNetwork(t, e)
	good := GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   10,
		ThinkTime: sim.NewExponential(time.Second),
		Profile:   RUBBoSProfile(),
	}
	if _, err := NewGenerator(n, good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := NewGenerator(nil, good); err == nil {
		t.Error("nil network accepted")
	}
	bad := good
	bad.Clients = 0
	if _, err := NewGenerator(n, bad); err == nil {
		t.Error("zero clients accepted")
	}
	bad = good
	bad.ThinkTime = nil
	if _, err := NewGenerator(n, bad); err == nil {
		t.Error("nil think time accepted")
	}
	bad = good
	bad.Retransmit = queueing.RetransmitPolicy{RTOMin: time.Second, Backoff: 0.1}
	if _, err := NewGenerator(n, bad); err == nil {
		t.Error("bad retransmit accepted")
	}
	bad = good
	bad.Arena = nil
	if _, err := NewGenerator(n, bad); err == nil {
		t.Error("nil arena accepted")
	}
}

func TestClosedLoopThroughputMatchesLittlesLaw(t *testing.T) {
	// 200 clients, 2s think, fast service: throughput ≈ N/Z = 100/s.
	e := sim.NewEngine(5)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:      stats.NewArena(),
		Clients:    200,
		ThinkTime:  sim.NewExponential(2 * time.Second),
		Profile:    RUBBoSProfile(),
		Retransmit: queueing.DefaultRetransmit(),
		RampUp:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	horizon := 60 * time.Second
	e.Run(horizon)
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	rate := float64(g.ClientRT().Len()) / horizon.Seconds()
	if rate < 85 || rate > 110 {
		t.Errorf("closed-loop throughput %v req/s, want ~100 (Little's law)", rate)
	}
}

func TestBaselineTailUnder100ms(t *testing.T) {
	// The paper's no-attack baseline: every request answers within
	// ~100 ms. Scaled-down population with the same per-client load.
	e := sim.NewEngine(9)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:      stats.NewArena(),
		Clients:    700,
		ThinkTime:  sim.NewExponential(1400 * time.Millisecond), // same λ as 3500 @ 7s
		Profile:    RUBBoSProfile(),
		Retransmit: queueing.DefaultRetransmit(),
		RampUp:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Run(40 * time.Second)
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if g.ClientRT().Len() < 5000 {
		t.Fatalf("too few samples: %d", g.ClientRT().Len())
	}
	p95 := g.ClientRT().Percentile(95)
	if p95 > 100*time.Millisecond {
		t.Errorf("baseline p95 = %v, want <= 100ms", p95)
	}
	if g.Drops() != 0 {
		t.Errorf("baseline dropped %d requests", g.Drops())
	}
}

func TestPageMixRoughlyMatchesStationaryDistribution(t *testing.T) {
	// Run the chain directly for many steps and compare against the
	// generator's page visit counts.
	e := sim.NewEngine(11)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   300,
		ThinkTime: sim.NewExponential(500 * time.Millisecond),
		Profile:   RUBBoSProfile(),
		RampUp:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Run(60 * time.Second)
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}

	visits := make([]float64, len(RUBBoSProfile().Pages))
	total := 0.0
	for i := range visits {
		s, err := g.PageRT(i)
		if err != nil {
			t.Fatal(err)
		}
		visits[i] = float64(s.Len())
		total += visits[i]
	}
	if total == 0 {
		t.Fatal("no page visits recorded")
	}

	// Stationary distribution via direct chain walk.
	p := RUBBoSProfile()
	rng := rand.New(rand.NewSource(3))
	counts := make([]float64, len(p.Pages))
	state := samplePMF(rng, p.Initial)
	const steps = 300000
	for i := 0; i < steps; i++ {
		state = samplePMF(rng, p.Transitions[state])
		counts[state]++
	}
	for i := range counts {
		want := counts[i] / steps
		got := visits[i] / total
		if want > 0.02 && (got < want*0.7 || got > want*1.3) {
			t.Errorf("page %d (%s) frequency %v, stationary %v", i, p.Pages[i].Name, got, want)
		}
	}
}

func TestGeneratorRetransmitsOnDrop(t *testing.T) {
	// A brutal stall on MySQL forces front-tier drops; clients must
	// retransmit and eventually record RTs above the 1s RTO.
	e := sim.NewEngine(13)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:      stats.NewArena(),
		Clients:    700,
		ThinkTime:  sim.NewExponential(1400 * time.Millisecond),
		Profile:    RUBBoSProfile(),
		Retransmit: queueing.DefaultRetransmit(),
		RampUp:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Schedule(5*time.Second, func() { _ = n.SetCapacityMultiplier(2, 0.01) })
	e.Schedule(7*time.Second, func() { _ = n.SetCapacityMultiplier(2, 1) })
	e.Run(20 * time.Second)
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if g.Drops() == 0 {
		t.Fatal("no drops under a 2-second full stall")
	}
	if g.Retransmissions() == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if max := g.ClientRT().Max(); max < time.Second {
		t.Errorf("max client RT %v, want >= 1s (retransmitted requests)", max)
	}
}

func TestResetMetrics(t *testing.T) {
	e := sim.NewEngine(17)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   50,
		ThinkTime: sim.NewExponential(500 * time.Millisecond),
		Profile:   RUBBoSProfile(),
		RampUp:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Run(10 * time.Second)
	if g.ClientRT().Len() == 0 {
		t.Fatal("no samples before reset")
	}
	g.ResetMetrics()
	if g.ClientRT().Len() != 0 || g.Requests() != 0 {
		t.Error("metrics not cleared")
	}
	e.Run(20 * time.Second)
	if g.ClientRT().Len() == 0 {
		t.Error("no samples after reset; population died")
	}
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
}

func TestRecordSeries(t *testing.T) {
	e := sim.NewEngine(19)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   20,
		ThinkTime: sim.NewExponential(200 * time.Millisecond),
		Profile:   RUBBoSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.RecordSeries(true)
	g.Start()
	e.Run(5 * time.Second)
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if len(g.RTSeries().Points) == 0 {
		t.Error("series not recorded")
	}
	if len(g.RTSeries().Points) != g.ClientRT().Len() {
		t.Errorf("series %d entries, sample %d", len(g.RTSeries().Points), g.ClientRT().Len())
	}
	if _, err := g.PageRT(-1); err == nil {
		t.Error("negative page accepted")
	}
}

func TestStopQuiescesPopulation(t *testing.T) {
	e := sim.NewEngine(23)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   100,
		ThinkTime: sim.NewExponential(300 * time.Millisecond),
		Profile:   RUBBoSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Run(5 * time.Second)
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if n.InFlight() != 0 {
		t.Errorf("requests in flight after Stop and drain: %d", n.InFlight())
	}
	before := g.Requests()
	e.Run(20 * time.Second)
	if g.Requests() != before {
		t.Error("requests issued after Stop")
	}
}

func TestSetPopulationGrowth(t *testing.T) {
	e := sim.NewEngine(31)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   100,
		ThinkTime: sim.NewExponential(time.Second),
		Profile:   RUBBoSProfile(),
		RampUp:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Run(20 * time.Second)
	baseRate := float64(g.ClientRT().Len()) / 20

	// Double the population: throughput should roughly double.
	if prev := g.SetPopulation(200, time.Second); prev != 100 {
		t.Errorf("previous population = %d, want 100", prev)
	}
	g.ResetMetrics()
	e.Run(50 * time.Second)
	grownRate := float64(g.ClientRT().Len()) / 30
	if grownRate < baseRate*1.6 || grownRate > baseRate*2.4 {
		t.Errorf("throughput %v after doubling, want ~2x %v", grownRate, baseRate)
	}
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
}

func TestSetPopulationShrinkAndRegrow(t *testing.T) {
	e := sim.NewEngine(33)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   200,
		ThinkTime: sim.NewExponential(500 * time.Millisecond),
		Profile:   RUBBoSProfile(),
		RampUp:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	e.Run(10 * time.Second)

	// Shrink to a quarter, let retirements drain, then regrow to half.
	g.SetPopulation(50, 0)
	e.Run(20 * time.Second) // several think cycles: all retirements land
	g.ResetMetrics()
	e.Run(70 * time.Second) // 40s measurement window
	shrunkRate := float64(g.ClientRT().Len()) / 40
	// 50 clients at 0.5s think ≈ 100 req/s.
	if shrunkRate < 70 || shrunkRate > 130 {
		t.Errorf("shrunk throughput %v req/s, want ~100", shrunkRate)
	}

	g.SetPopulation(100, time.Second)
	e.Run(85 * time.Second) // let the regrowth settle
	g.ResetMetrics()
	e.Run(125 * time.Second) // 40s measurement window
	regrownRate := float64(g.ClientRT().Len()) / 40
	if regrownRate < 150 || regrownRate > 260 {
		t.Errorf("regrown throughput %v req/s, want ~200", regrownRate)
	}
	g.Stop()
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
}

func TestSetPopulationBeforeStart(t *testing.T) {
	e := sim.NewEngine(35)
	n := rubbosNetwork(t, e)
	g, err := NewGenerator(n, GeneratorConfig{
		Arena:     stats.NewArena(),
		Clients:   10,
		ThinkTime: sim.NewExponential(time.Second),
		Profile:   RUBBoSProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetPopulation(30, 0)
	g.Start()
	if prev := g.SetPopulation(30, 0); prev != 30 {
		t.Errorf("population after Start = %d, want 30", prev)
	}
	g.Stop()
}
