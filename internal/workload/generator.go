package workload

import (
	"fmt"
	"math/rand"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

// GeneratorConfig parameterizes a closed-loop client population.
type GeneratorConfig struct {
	// Clients is the number of concurrent emulated users.
	Clients int
	// ThinkTime separates a response from the user's next request
	// (RUBBoS default: exponential with 7 s mean).
	ThinkTime sim.Dist
	// Profile is the browsing model.
	Profile Profile
	// RampUp staggers session starts uniformly over this window so all
	// clients don't fire at once; zero means start with one think draw.
	RampUp time.Duration
	// Arena backs the client-side samples and the RT series; it is
	// required. The caller owns the arena's lifecycle (same rules as
	// queueing.Config.Arena).
	Arena *stats.Arena
}

// Generator drives a client population against a network through a
// queueing.Client, which retransmits dropped requests under the network's
// Config.Retransmit, and aggregates client-observed response times. The
// steady-state session loop — think, visit, submit, complete — performs
// no heap allocations: page context rides on Request.UserData (small ints
// convert to `any` without allocating) and think/visit events use the
// engine's Actor path.
type Generator struct {
	engine *sim.Engine
	client *queueing.Client
	cfg    GeneratorConfig

	running bool
	// population is the nominal live-session count.
	population int
	// retireNeeded is how many sessions must die at their next activity
	// to reach the target population (shrink is lazy; see
	// SetPopulation).
	retireNeeded int

	clientRT *stats.Sample
	perPage  []*stats.Sample
	rtSeries *stats.TimeSeries // (completion time, RT in seconds), Fig 9d

	recordSeries bool
	requests     uint64
}

// NewGenerator validates the configuration against the network and builds
// a generator. Call Start to launch the client population.
func NewGenerator(network *queueing.Network, cfg GeneratorConfig) (*Generator, error) {
	if network == nil {
		return nil, fmt.Errorf("workload: network must not be nil")
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("workload: Clients must be positive, got %d", cfg.Clients)
	}
	if cfg.ThinkTime == nil {
		return nil, fmt.Errorf("workload: ThinkTime must not be nil")
	}
	if cfg.Arena == nil {
		return nil, fmt.Errorf("workload: Arena must not be nil")
	}
	if err := cfg.Profile.Validate(network.NumClasses()); err != nil {
		return nil, err
	}
	g := &Generator{
		engine:   network.Engine(),
		cfg:      cfg,
		clientRT: cfg.Arena.Sample(4096),
		rtSeries: cfg.Arena.TimeSeries("client-rt"),
	}
	g.perPage = make([]*stats.Sample, len(cfg.Profile.Pages))
	for i := range g.perPage {
		g.perPage[i] = cfg.Arena.Sample(256)
	}
	// A page ends completed or failed; either way the user browses on
	// after thinking.
	g.client = queueing.NewClient(network, func(req *queueing.Request) {
		page := req.UserData.(int)
		if !req.Dropped {
			rt := req.ClientRT()
			g.clientRT.Add(rt)
			g.perPage[page].Add(rt)
			if g.recordSeries {
				g.rtSeries.Add(req.Done, rt.Seconds())
			}
		}
		g.think(page)
	})
	return g, nil
}

// Act makes the generator the sim.Actor for its session events: the int
// arg is the next page visit.
func (g *Generator) Act(arg any) { g.visit(arg.(int)) }

// RecordSeries toggles per-completion (time, RT) series recording, used by
// the fine-grained snapshot figure. Off by default to bound memory.
func (g *Generator) RecordSeries(on bool) { g.recordSeries = on }

// Start launches every client session. It is idempotent while running.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
	g.client.Stopped = false
	g.population = g.cfg.Clients
	g.spawn(g.cfg.Clients, g.cfg.RampUp)
}

// spawn launches n new sessions staggered over rampUp.
func (g *Generator) spawn(n int, rampUp time.Duration) {
	rng := g.engine.Rand()
	for c := 0; c < n; c++ {
		page := samplePMF(rng, g.cfg.Profile.Initial)
		var delay time.Duration
		if rampUp > 0 {
			delay = time.Duration(rng.Int63n(int64(rampUp)))
		} else {
			delay = g.cfg.ThinkTime.Sample(rng)
		}
		g.engine.ScheduleCall(delay, g, page)
	}
}

// SetPopulation changes the live client population, modelling organic
// load dynamics (flash crowds, diurnal ramps). Growth spawns new sessions
// staggered over rampUp; shrinkage retires sessions lazily at their next
// activity. It returns the previous population.
func (g *Generator) SetPopulation(n int, rampUp time.Duration) int {
	prev := g.population
	if n < 0 {
		n = 0
	}
	if !g.running {
		g.cfg.Clients = n
		return prev
	}
	delta := n - g.population
	g.population = n
	if delta > 0 {
		// Cancel pending retirements before spawning fresh sessions.
		if g.retireNeeded > 0 {
			cancel := g.retireNeeded
			if cancel > delta {
				cancel = delta
			}
			g.retireNeeded -= cancel
			delta -= cancel
		}
		g.spawn(delta, rampUp)
		return prev
	}
	g.retireNeeded += -delta
	return prev
}

// Stop halts the population: sessions end after their current request or
// think period, and a pending retransmission abandons its page.
func (g *Generator) Stop() {
	g.running = false
	g.client.Stopped = true
}

// sessionContinues reports whether the calling session should keep
// running, consuming one pending retirement if any.
func (g *Generator) sessionContinues() bool {
	if !g.running {
		return false
	}
	if g.retireNeeded > 0 {
		g.retireNeeded--
		return false
	}
	return true
}

// visit issues the request for the given page, then continues the session.
// The page index travels on UserData so the shared completion callbacks
// can attribute the response without a per-request closure.
func (g *Generator) visit(page int) {
	if !g.sessionContinues() {
		return
	}
	g.requests++
	g.client.Submit(g.cfg.Profile.Pages[page].Class, page)
}

// think schedules the next page visit after a think-time draw.
func (g *Generator) think(page int) {
	if !g.running {
		return
	}
	rng := g.engine.Rand()
	next := samplePMF(rng, g.cfg.Profile.Transitions[page])
	g.engine.ScheduleCall(g.cfg.ThinkTime.Sample(rng), g, next)
}

// samplePMF draws an index from a probability mass function.
func samplePMF(rng *rand.Rand, pmf []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range pmf {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(pmf) - 1
}

// Profile returns the browsing model the generator was built with. The
// Profile's slices are shared; callers must not modify them.
func (g *Generator) Profile() Profile { return g.cfg.Profile }

// ClientRT returns the aggregated client response-time sample (shared; do
// not mutate).
func (g *Generator) ClientRT() *stats.Sample { return g.clientRT }

// PageRT returns the response-time sample for one page index.
func (g *Generator) PageRT(page int) (*stats.Sample, error) {
	if page < 0 || page >= len(g.perPage) {
		return nil, fmt.Errorf("workload: page %d out of range [0,%d)", page, len(g.perPage))
	}
	return g.perPage[page], nil
}

// RTSeries returns the per-completion response-time series (populated only
// while RecordSeries(true)).
func (g *Generator) RTSeries() *stats.TimeSeries { return g.rtSeries }

// ResetMetrics discards accumulated samples in place, e.g. after a
// warm-up phase, without disturbing the client population. Backing
// storage is kept for reuse.
func (g *Generator) ResetMetrics() {
	g.clientRT.Reset()
	for i := range g.perPage {
		g.perPage[i].Reset()
	}
	g.rtSeries.Reset()
	g.requests = 0
	g.client.ResetCounters()
}

// Requests returns the number of page visits issued (first attempts).
func (g *Generator) Requests() uint64 { return g.requests }

// Retransmissions returns how many drops were retried.
func (g *Generator) Retransmissions() uint64 { return g.client.Retransmissions() }

// Failures returns how many page visits were abandoned after exhausting
// retries.
func (g *Generator) Failures() uint64 { return g.client.Failures() }
