package queueing

import (
	"fmt"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// Network is an n-tier queueing system bound to a simulation engine. It is
// single-threaded: all methods must run on the simulator goroutine (inside
// engine callbacks or between engine runs).
//
// The steady-state request path allocates nothing: requests, retry
// records and service runs are recycled through the pool its arena keeps,
// tier queues are ring buffers from the same pool, and network-hop events
// use the engine's Actor path instead of closures.
type Network struct {
	engine *sim.Engine
	cfg    Config
	tiers  []*tier
	// obs receives lifecycle events when set (see Config.Observer); a
	// nil observer costs one predictable branch per lifecycle point.
	obs Observer

	// nextTraceID assigns trace identities to first attempts; IDs start
	// at 1 so zero always means "unset".
	nextTraceID uint64
	drops       uint64
	completed   uint64
	inFlight    int

	// pool holds the request, retry, service-run and ring storage; the
	// arena keeps it, shared with every network of the same tier count
	// on that arena, and its Reset takes everything back, so a network
	// must not be used after its arena's Reset.
	pool *pool
}

// New builds a network from the configuration.
func New(engine *sim.Engine, cfg Config) (*Network, error) {
	if engine == nil {
		return nil, fmt.Errorf("queueing: engine must not be nil")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{engine: engine, cfg: cfg, obs: cfg.Observer, pool: poolFor(cfg.Arena, len(cfg.Tiers))}
	n.tiers = make([]*tier, len(cfg.Tiers))
	for i, tc := range cfg.Tiers {
		n.tiers[i] = newTier(tc, i, n)
	}
	return n, nil
}

// Engine returns the bound simulation engine.
func (n *Network) Engine() *sim.Engine { return n.engine }

// NumTiers returns the number of tiers.
func (n *Network) NumTiers() int { return len(n.tiers) }

// NumClasses returns the number of configured request classes.
func (n *Network) NumClasses() int { return len(n.cfg.Classes) }

// SubmitOpts parameterizes one request submission.
type SubmitOpts struct {
	// Class indexes Config.Classes.
	Class int
	// UserData is carried on the request.
	UserData any
	// OnComplete fires when the response reaches the client. The *Request
	// is recycled once the callback returns; copy fields out, do not
	// retain the pointer.
	OnComplete func(*Request)
	// client, set by a Client for its own submissions, handles the
	// request's drop.
	client *Client
	// resend, set only by a Client, makes this submission the next
	// attempt of the dropped request it records: same first-attempt time,
	// trace and observer slot.
	resend *retry
}

// Submit injects a request at the front tier without a Client: a drop
// loses it, nothing retransmits it. The drop decision is made
// synchronously, before Submit returns. The returned *Request comes from
// the network's recycling pool and is only valid for reading until the
// next Submit. Every client population submits through a Client instead.
//
//memca:keep tests drive single requests with their own callbacks through it, and the tracer's golden scenario needs a drop no client retries
func (n *Network) Submit(opts SubmitOpts) (*Request, error) {
	if opts.Class < 0 || opts.Class >= len(n.cfg.Classes) {
		return nil, fmt.Errorf("queueing: class %d out of range [0,%d)", opts.Class, len(n.cfg.Classes))
	}
	return n.submit(opts), nil
}

// submit is Submit for a class known to exist.
func (n *Network) submit(opts SubmitOpts) *Request {
	now := n.engine.Now()
	req := n.pool.getRequest(n.cfg.Classes[opts.Class].Depth)
	req.Class = opts.Class
	req.Submit = now
	req.UserData = opts.UserData
	req.onComplete = opts.OnComplete
	req.client = opts.client
	if r := opts.resend; r != nil {
		req.FirstAttempt = r.first
		req.Attempt = int(r.attempt)
		req.TraceID = r.traceID
		req.TraceSlot = r.slot
	} else {
		req.FirstAttempt = now
		n.nextTraceID++
		req.TraceID = n.nextTraceID
	}
	n.inFlight++
	n.observe(req, SpanSubmit, -1)
	n.tiers[0].requestSlot(req)
	return req
}

// observe dispatches one lifecycle event to the configured observer.
func (n *Network) observe(req *Request, kind SpanKind, tier int) {
	if n.obs != nil {
		n.obs.Observe(req, kind, tier)
	}
}

// advance moves a request that finished service at tier i: deeper if the
// class descends further, otherwise back to the client.
func (n *Network) advance(req *Request, i int) {
	depth := n.cfg.Classes[req.Class].Depth
	if i < depth {
		n.tiers[i+1].requestSlot(req)
		return
	}
	// Deepest tier done: in RPC mode the response releases every held
	// slot from the back to the front; in tandem mode tiers were already
	// released one by one.
	if n.cfg.Mode == ModeNTierRPC {
		for j := i; j >= 0; j-- {
			n.tiers[j].respond(req)
		}
	}
	req.Done = n.engine.Now()
	n.completed++
	n.inFlight--
	n.observe(req, SpanComplete, -1)
	if req.onComplete != nil {
		req.onComplete(req)
	}
	n.pool.putRequest(req)
}

// notifyDrop hands a rejected request to its Client, then recycles it.
func (n *Network) notifyDrop(req *Request) {
	n.inFlight--
	if req.client != nil {
		req.client.drop(req)
	}
	n.pool.putRequest(req)
}

// SetCapacityMultiplier scales tier i's service rate: 1 is full capacity
// C_OFF, the MemCA ON-burst sets the victim tier to the degradation index
// D so that C_ON = D * C_OFF. In-flight work is preserved (fluid model).
func (n *Network) SetCapacityMultiplier(i int, mult float64) error {
	if i < 0 || i >= len(n.tiers) {
		return fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	n.tiers[i].setMultiplier(mult)
	return nil
}

// CapacityMultiplier returns tier i's current multiplier.
//
//memca:keep the attack tests observe the injector's ON/OFF multiplier only through it
func (n *Network) CapacityMultiplier(i int) (float64, error) {
	if i < 0 || i >= len(n.tiers) {
		return 0, fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	return n.tiers[i].mult, nil
}

// SetCapacityScale sets tier i's elastic-scaling factor: the tier's
// aggregate service rate becomes scale * multiplier * C_OFF. An auto
// scaler growing a fleet from 1 to k instances sets scale = k.
func (n *Network) SetCapacityScale(i int, scale float64) error {
	if i < 0 || i >= len(n.tiers) {
		return fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	n.tiers[i].setScale(scale)
	return nil
}

// ResetTierSamples discards the accumulated per-tier response-time
// samples in place (e.g. after a warm-up phase), keeping their backing
// storage. Level integrators keep their full history since utilization
// queries are windowed.
func (n *Network) ResetTierSamples() {
	for _, t := range n.tiers {
		t.rt.Reset()
	}
}

// Drops returns the number of requests rejected so far.
func (n *Network) Drops() uint64 { return n.drops }

// Completed returns the number of requests that finished.
//
//memca:keep the conservation tests check sent = completed + retransmitted + failed only through it
func (n *Network) Completed() uint64 { return n.completed }

// InFlight returns the number of requests currently inside the network.
//
//memca:keep the conservation tests check that a drained network holds no request only through it
func (n *Network) InFlight() int { return n.inFlight }

// TierSnapshot is a read-only view of one tier's state and metrics.
type TierSnapshot struct {
	// InUse is the current number of held concurrency slots.
	InUse int
	// Backlog is the number of requests blocked in front of the tier.
	//
	//memca:keep the drain tests check a drained tier holds no blocked request only through it
	Backlog int
	// BusyStations is the number of stations serving right now.
	//
	//memca:keep the drain tests check a drained tier serves nothing only through it
	BusyStations int
	// Completions counts responses the tier has returned.
	Completions uint64
}

// TierState returns a snapshot of tier i.
func (n *Network) TierState(i int) (TierSnapshot, error) {
	if i < 0 || i >= len(n.tiers) {
		return TierSnapshot{}, fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	t := n.tiers[i]
	return TierSnapshot{
		InUse:        t.inUse,
		Backlog:      t.pendingAdmit.len(),
		BusyStations: t.busyStations,
		Completions:  t.completions,
	}, nil
}

// TierRT returns the response-time sample of tier i (shared, do not
// mutate).
func (n *Network) TierRT(i int) (*stats.Sample, error) {
	if i < 0 || i >= len(n.tiers) {
		return nil, fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	return n.tiers[i].rt, nil
}

// TierOccupancy returns the exact slots-in-use level integrator of tier i.
// Its Level and Integral are always valid. Its WindowAverage needs the
// transition history, which is off by default: a caller that reads
// windows calls KeepHistory on the result before the run starts.
func (n *Network) TierOccupancy(i int) (*stats.LevelIntegrator, error) {
	if i < 0 || i >= len(n.tiers) {
		return nil, fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	return n.tiers[i].occupancy, nil
}

// TierBusy returns the busy-stations level integrator of tier i; dividing
// its window averages by Servers yields CPU utilization, the signal the
// monitoring experiments sample at different granularities. As with
// TierOccupancy, a caller that reads windows calls KeepHistory on the
// result before the run starts; TierBusy itself changes nothing.
func (n *Network) TierBusy(i int) (*stats.LevelIntegrator, error) {
	if i < 0 || i >= len(n.tiers) {
		return nil, fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	return n.tiers[i].busy, nil
}

// TierUtilization returns tier i's CPU utilization over [from, to). It
// reads the window from tier i's busy integrator, so KeepHistory must have
// been called on TierBusy(i) before from; otherwise it panics.
func (n *Network) TierUtilization(i int, from, to time.Duration) (float64, error) {
	if i < 0 || i >= len(n.tiers) {
		return 0, fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	t := n.tiers[i]
	return t.busy.WindowAverage(from, to) / float64(t.cfg.Servers), nil
}

// TierName returns tier i's configured name.
func (n *Network) TierName(i int) (string, error) {
	if i < 0 || i >= len(n.tiers) {
		return "", fmt.Errorf("queueing: tier %d out of range [0,%d)", i, len(n.tiers))
	}
	return n.tiers[i].cfg.Name, nil
}
