package queueing

import (
	"fmt"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// SourceConfig parameterizes an open-loop Poisson request source with
// TCP-style retransmission on drop, matching the paper's model analysis
// setup (Poisson arrivals per tier class).
type SourceConfig struct {
	// Class indexes the network's request classes.
	Class int
	// Rate is the arrival rate in requests/second.
	Rate float64
	// Retransmit governs retry behaviour for dropped requests. A zero
	// value (RTOMin == 0) disables retransmission: drops are final.
	Retransmit RetransmitPolicy
}

// srcRetrans is one pending retransmission, pooled so that the drop-retry
// path stays allocation-free.
type srcRetrans struct {
	first   time.Duration
	attempt int
	traceID uint64
}

// Source generates Poisson arrivals into a network and records the
// client-perceived response times, including retransmission delays. The
// steady-state arrival path performs no allocations: the inter-arrival
// distribution is hoisted, submissions reuse prebuilt callbacks, and both
// arrival and retransmission events ride the engine's Actor path.
type Source struct {
	engine  *sim.Engine
	network *Network
	cfg     SourceConfig
	gap     sim.Exponential

	running  bool
	stopped  bool
	clientRT *stats.Sample

	onComplete func(*Request)
	onDrop     func(*Request)
	freeRecs   []*srcRetrans

	sent     uint64
	retrans  uint64
	failures uint64
}

// NewPoissonSource binds a source to a network. Call Start to begin
// arrivals.
func NewPoissonSource(network *Network, cfg SourceConfig) (*Source, error) {
	if network == nil {
		return nil, fmt.Errorf("queueing: network must not be nil")
	}
	if cfg.Class < 0 || cfg.Class >= len(network.cfg.Classes) {
		return nil, fmt.Errorf("queueing: source class %d out of range [0,%d)", cfg.Class, len(network.cfg.Classes))
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("queueing: source rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Retransmit.RTOMin != 0 {
		if err := cfg.Retransmit.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Source{
		engine:   network.engine,
		network:  network,
		cfg:      cfg,
		gap:      sim.NewExponentialRate(cfg.Rate),
		clientRT: network.cfg.Arena.Sample(1024),
	}
	s.onComplete = func(req *Request) { s.clientRT.Add(req.ClientRT()) }
	s.onDrop = func(req *Request) { s.handleDrop(req) }
	return s, nil
}

// Start begins generating arrivals. It is idempotent.
func (s *Source) Start() {
	if s.running {
		return
	}
	s.running = true
	s.stopped = false
	s.scheduleNext()
}

// Stop halts future arrivals; in-flight requests complete normally.
func (s *Source) Stop() {
	s.stopped = true
	s.running = false
}

func (s *Source) scheduleNext() {
	s.engine.ScheduleCall(s.gap.Sample(s.engine.Rand()), s, nil)
}

// Act makes the source the sim.Actor for its own events: a nil arg is the
// next Poisson arrival, a *srcRetrans is a due retransmission.
func (s *Source) Act(arg any) {
	if arg == nil {
		if s.stopped {
			return
		}
		s.fire(0, 0, 0)
		s.scheduleNext()
		return
	}
	rec := arg.(*srcRetrans)
	first, attempt, traceID := rec.first, rec.attempt, rec.traceID
	s.freeRecs = append(s.freeRecs, rec)
	if s.stopped {
		return
	}
	s.fire(first, attempt, traceID)
}

// fire submits one attempt. firstAttempt is zero for fresh requests;
// traceID carries the original attempt's trace across retransmissions.
func (s *Source) fire(firstAttempt time.Duration, attempt int, traceID uint64) {
	s.sent++
	_, err := s.network.Submit(SubmitOpts{
		Class:        s.cfg.Class,
		FirstAttempt: firstAttempt,
		Attempt:      attempt,
		TraceID:      traceID,
		OnComplete:   s.onComplete,
		OnDrop:       s.onDrop,
	})
	if err != nil {
		// Class was validated at construction; a failure here is a bug.
		panic(err)
	}
}

func (s *Source) handleDrop(req *Request) {
	if s.cfg.Retransmit.RTOMin == 0 {
		s.failures++
		return
	}
	next := req.Attempt + 1
	if next > s.cfg.Retransmit.MaxRetries {
		s.failures++
		return
	}
	s.retrans++
	rto := s.cfg.Retransmit.RTO(next)
	var rec *srcRetrans
	if k := len(s.freeRecs); k > 0 {
		rec = s.freeRecs[k-1]
		s.freeRecs = s.freeRecs[:k-1]
	} else {
		rec = &srcRetrans{}
	}
	rec.first = req.FirstAttempt
	rec.attempt = next
	rec.traceID = req.TraceID
	s.engine.ScheduleCall(rto, s, rec)
}

// ClientRT returns the sample of end-user response times (shared, do not
// mutate).
func (s *Source) ClientRT() *stats.Sample { return s.clientRT }

// Sent returns the number of submit attempts (including retransmissions).
//
//memca:keep the conservation tests check sent = completed + retransmitted + failed only through it
func (s *Source) Sent() uint64 { return s.sent }

// Retransmissions returns how many drops were retried.
//
//memca:keep the conservation and retransmission tests count retried drops only through it
func (s *Source) Retransmissions() uint64 { return s.retrans }

// Failures returns how many requests exhausted their retries (or were
// dropped with retransmission disabled).
//
//memca:keep the conservation and retransmission tests count abandoned requests only through it
func (s *Source) Failures() uint64 { return s.failures }
