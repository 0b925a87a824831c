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
	// Retransmit governs dropped-request retries; zero RTOMin disables.
	Retransmit queueing.RetransmitPolicy
	// RampUp staggers session starts uniformly over this window so all
	// clients don't fire at once; zero means start with one think draw.
	RampUp time.Duration
	// Trace, when non-nil, observes the client-side trace events the
	// network cannot see: scheduled retransmissions and abandoned pages.
	Trace TraceHook
	// Arena backs the client-side samples and the RT series; it is
	// required. The caller owns the arena's lifecycle (same rules as
	// queueing.Config.Arena).
	Arena *stats.Arena
}

// TraceHook receives the client-side lifecycle events of a traced request
// that happen outside the queueing network: the retransmission timer that
// fires between a drop and the next submit, and the moment a client gives
// up on a page. internal/telemetry implements it; the generator only needs
// this narrow view, which keeps workload free of a telemetry dependency.
type TraceHook interface {
	// RetransmitScheduled fires when a dropped attempt is queued for
	// retransmission: the client will resubmit trace traceID as attempt
	// `attempt` at virtual time fireAt.
	RetransmitScheduled(traceID uint64, attempt int, fireAt time.Duration)
	// TraceAbandoned fires when the client gives up on the trace: retries
	// exhausted, or the session retired with a retransmission pending.
	TraceAbandoned(traceID uint64)
}

// genRetrans is one pending page retransmission, pooled so the drop-retry
// path allocates nothing in steady state.
type genRetrans struct {
	page    int
	first   time.Duration
	attempt int
	traceID uint64
}

// Generator drives a client population against a network and aggregates
// client-observed response times. The steady-state session loop —
// think, visit, submit, complete — performs no heap allocations: page
// context rides on Request.UserData (small ints convert to `any` without
// allocating), submissions reuse two prebuilt callbacks, and think/visit
// and retransmission events use the engine's Actor path.
type Generator struct {
	engine  *sim.Engine
	network *queueing.Network
	cfg     GeneratorConfig

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

	onComplete  func(*queueing.Request)
	onDrop      func(*queueing.Request)
	freeRetrans []*genRetrans

	recordSeries bool
	requests     uint64
	drops        uint64
	retrans      uint64
	failures     uint64
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
	if cfg.Retransmit.RTOMin != 0 {
		if err := cfg.Retransmit.Validate(); err != nil {
			return nil, err
		}
	}
	if err := cfg.Profile.Validate(network.NumClasses()); err != nil {
		return nil, err
	}
	g := &Generator{
		engine:   network.Engine(),
		network:  network,
		cfg:      cfg,
		clientRT: cfg.Arena.Sample(4096),
		rtSeries: cfg.Arena.TimeSeries("client-rt"),
	}
	g.perPage = make([]*stats.Sample, len(cfg.Profile.Pages))
	for i := range g.perPage {
		g.perPage[i] = cfg.Arena.Sample(256)
	}
	g.onComplete = func(req *queueing.Request) {
		page := req.UserData.(int)
		rt := req.ClientRT()
		g.clientRT.Add(rt)
		g.perPage[page].Add(rt)
		if g.recordSeries {
			g.rtSeries.Add(req.Done, rt.Seconds())
		}
		g.think(page)
	}
	g.onDrop = func(req *queueing.Request) {
		g.drops++
		g.handleDrop(req.UserData.(int), req)
	}
	return g, nil
}

// Act makes the generator the sim.Actor for its session events: a bare
// int arg is the next page visit, a *genRetrans is a due retransmission.
func (g *Generator) Act(arg any) {
	if rec, ok := arg.(*genRetrans); ok {
		page, first, attempt, traceID := rec.page, rec.first, rec.attempt, rec.traceID
		g.freeRetrans = append(g.freeRetrans, rec)
		if !g.running {
			// The population stopped with this retransmission pending; the
			// trace will never close on its own.
			if g.cfg.Trace != nil {
				g.cfg.Trace.TraceAbandoned(traceID)
			}
			return
		}
		g.submit(page, first, attempt, traceID)
		return
	}
	g.visit(arg.(int))
}

// RecordSeries toggles per-completion (time, RT) series recording, used by
// the fine-grained snapshot figure. Off by default to bound memory.
func (g *Generator) RecordSeries(on bool) { g.recordSeries = on }

// Start launches every client session. It is idempotent while running.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
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

// Population returns the nominal live-session count.
func (g *Generator) Population() int { return g.population }

// Stop halts the population: sessions end after their current request or
// think period.
func (g *Generator) Stop() { g.running = false }

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
func (g *Generator) visit(page int) {
	if !g.sessionContinues() {
		return
	}
	g.requests++
	g.submit(page, 0, 0, 0)
}

// submit sends one attempt of the current page request. The page index
// travels on UserData so the shared completion callbacks can attribute the
// response without a per-request closure. traceID is zero for first
// attempts (the network assigns a fresh trace) and carries the original
// trace across retransmissions.
func (g *Generator) submit(page int, firstAttempt time.Duration, attempt int, traceID uint64) {
	spec := g.cfg.Profile.Pages[page]
	_, err := g.network.Submit(queueing.SubmitOpts{
		Class:        spec.Class,
		FirstAttempt: firstAttempt,
		Attempt:      attempt,
		TraceID:      traceID,
		UserData:     page,
		OnComplete:   g.onComplete,
		OnDrop:       g.onDrop,
	})
	if err != nil {
		// Classes were validated at construction; a failure is a bug.
		panic(err)
	}
}

func (g *Generator) handleDrop(page int, req *queueing.Request) {
	next := req.Attempt + 1
	if g.cfg.Retransmit.RTOMin == 0 || next > g.cfg.Retransmit.MaxRetries {
		// The user gives up on this page and browses on after thinking.
		g.failures++
		if g.cfg.Trace != nil {
			g.cfg.Trace.TraceAbandoned(req.TraceID)
		}
		g.think(page)
		return
	}
	g.retrans++
	if len(g.freeRetrans) == 0 {
		// Refill in blocks: one allocation covers the next 64 pool
		// misses during the cold-start ramp.
		recs := make([]genRetrans, 64)
		for i := range recs {
			g.freeRetrans = append(g.freeRetrans, &recs[i])
		}
	}
	k := len(g.freeRetrans)
	rec := g.freeRetrans[k-1]
	g.freeRetrans = g.freeRetrans[:k-1]
	rec.page = page
	rec.first = req.FirstAttempt
	rec.attempt = next
	rec.traceID = req.TraceID
	rto := g.cfg.Retransmit.RTO(next)
	if g.cfg.Trace != nil {
		g.cfg.Trace.RetransmitScheduled(req.TraceID, next, g.engine.Now()+rto)
	}
	g.engine.ScheduleCall(rto, g, rec)
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
	g.requests, g.drops, g.retrans, g.failures = 0, 0, 0, 0
}

// Requests returns the number of page visits issued (first attempts).
func (g *Generator) Requests() uint64 { return g.requests }

// Drops returns the number of dropped attempts observed.
func (g *Generator) Drops() uint64 { return g.drops }

// Retransmissions returns how many drops were retried.
func (g *Generator) Retransmissions() uint64 { return g.retrans }

// Failures returns how many page visits were abandoned after exhausting
// retries.
func (g *Generator) Failures() uint64 { return g.failures }
