package queueing

import (
	"time"

	"memca/internal/sim"
)

// Client is the TCP stack of one client population: it owns every
// request it submits from the first attempt to the final outcome. A drop
// (at the front tier, or at a full interior tier in tandem mode) is
// retransmitted after the network's RetransmitPolicy timeout, or given up
// on once the policy's retries are spent. This is the simulator's one
// model of TCP retransmission, the mechanism that turns a sub-second
// millibottleneck into a multi-second tail; Source, the workload
// generator and the feedback probe all submit through it.
//
// Each retransmission and each abandonment reaches the network's Observer
// as SpanRetransmit and SpanAbandon. Pending retries are records from the
// network's pool, riding the engine's Actor path, so the drop →
// retransmit → resubmit cycle allocates nothing in steady state.
type Client struct {
	network *Network
	engine  *sim.Engine
	policy  RetransmitPolicy

	onDone func(*Request)
	// lapsed carries a retry that came due after Stopped to the observer:
	// its dropped attempt was recycled when the retry was scheduled.
	lapsed Request

	// Stopped makes every retry that comes due abandon its request
	// (SpanAbandon) instead of resubmitting it. Such a request counts as
	// neither a retransmission nor a failure.
	Stopped bool

	sent     uint64
	retrans  uint64
	failures uint64
}

// retry is one pending retransmission: what the next attempt of a dropped
// request needs to rejoin its trace.
type retry struct {
	first   time.Duration
	traceID uint64
	data    any
	class   int32
	attempt int32
	slot    int32
}

// NewClient binds a client to a network, whose Config.Retransmit governs
// its retries. onDone, which may be nil, runs once per request with its
// final outcome: the attempt whose response reached the client, or the
// dropped attempt the client gave up on (Request.Dropped set), as it was
// dropped. It follows the network's no-retention rule for *Request.
func NewClient(network *Network, onDone func(*Request)) *Client {
	return &Client{
		network: network,
		engine:  network.engine,
		policy:  network.cfg.Retransmit,
		onDone:  onDone,
	}
}

// Submit sends the first attempt of a request of the given class,
// carrying data on Request.UserData across every attempt. It panics on a
// class the network does not have: callers validate classes when they are
// built.
func (c *Client) Submit(class int, data any) { c.submit(class, data, nil) }

func (c *Client) submit(class int, data any, resend *retry) {
	c.sent++
	c.network.submit(SubmitOpts{Class: class, UserData: data, OnComplete: c.onDone, client: c, resend: resend})
}

// drop retransmits a dropped attempt after the policy's timeout, or gives
// up on the request once its retries are spent (at once under the zero
// policy, whose MaxRetries is 0).
//
//memca:hotpath
func (c *Client) drop(req *Request) {
	next := req.Attempt + 1
	if next > c.policy.MaxRetries {
		c.failures++
		c.network.observe(req, SpanAbandon, -1)
		if c.onDone != nil {
			c.onDone(req)
		}
		return
	}
	c.retrans++
	rto := c.policy.RTO(next)
	r := c.network.pool.getRetry()
	*r = retry{first: req.FirstAttempt, traceID: req.TraceID, data: req.UserData, class: int32(req.Class), attempt: int32(next), slot: req.TraceSlot}
	req.Attempt, req.Submit = next, c.engine.Now()+rto
	c.network.observe(req, SpanRetransmit, -1)
	c.engine.ScheduleCall(rto, c, r)
}

// Act makes the client the sim.Actor of its due retries: it resubmits the
// request, or abandons it once the client is Stopped, and returns the
// record to the pool.
//
//memca:hotpath
func (c *Client) Act(arg any) {
	r := arg.(*retry)
	if c.Stopped {
		c.lapsed = Request{TraceID: r.traceID, TraceSlot: r.slot, Class: int(r.class), FirstAttempt: r.first, Attempt: int(r.attempt)}
		c.network.observe(&c.lapsed, SpanAbandon, -1)
	} else {
		c.submit(int(r.class), r.data, r)
	}
	c.network.pool.putRetry(r)
}

// Timeout returns the RTO the client waits after req was dropped before
// its next attempt: the time a caller charges for a request it gives up
// on.
func (c *Client) Timeout(req *Request) time.Duration { return c.policy.RTO(req.Attempt + 1) }

// Sent returns the number of attempts submitted, retransmissions included.
func (c *Client) Sent() uint64 { return c.sent }

// Retransmissions returns how many drops were retried.
func (c *Client) Retransmissions() uint64 { return c.retrans }

// Failures returns how many requests the client gave up on after a drop.
func (c *Client) Failures() uint64 { return c.failures }

// ResetCounters zeroes Sent, Retransmissions and Failures, e.g. after a
// warm-up phase.
func (c *Client) ResetCounters() { c.sent, c.retrans, c.failures = 0, 0, 0 }
