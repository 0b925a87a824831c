package queueing

import (
	"fmt"

	"memca/internal/sim"
	"memca/internal/stats"
)

// SourceConfig parameterizes an open-loop Poisson request source, matching
// the paper's model analysis setup (Poisson arrivals per tier class). Its
// dropped requests are retransmitted under the network's
// Config.Retransmit.
type SourceConfig struct {
	// Class indexes the network's request classes.
	Class int
	// Rate is the arrival rate in requests/second.
	Rate float64
}

// Source generates Poisson arrivals into a network through a Client and
// records the client-perceived response times, including retransmission
// delays. The steady-state arrival path performs no allocations: the
// inter-arrival distribution is hoisted and arrivals ride the engine's
// Actor path.
type Source struct {
	engine *sim.Engine
	client *Client
	cfg    SourceConfig
	gap    sim.Exponential

	running  bool
	clientRT *stats.Sample
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
	s := &Source{
		engine:   network.engine,
		cfg:      cfg,
		gap:      sim.NewExponentialRate(cfg.Rate),
		clientRT: network.cfg.Arena.Sample(1024),
	}
	s.client = NewClient(network, func(req *Request) {
		if !req.Dropped {
			s.clientRT.Add(req.ClientRT())
		}
	})
	return s, nil
}

// Start begins generating arrivals. It is idempotent.
func (s *Source) Start() {
	if s.running {
		return
	}
	s.running = true
	s.client.Stopped = false
	s.scheduleNext()
}

// Stop halts future arrivals and retransmissions; in-flight requests
// complete normally.
func (s *Source) Stop() {
	s.running = false
	s.client.Stopped = true
}

func (s *Source) scheduleNext() {
	s.engine.ScheduleCall(s.gap.Sample(s.engine.Rand()), s, nil)
}

// Act makes the source the sim.Actor of its Poisson arrivals.
func (s *Source) Act(any) {
	if !s.running {
		return
	}
	s.client.Submit(s.cfg.Class, nil)
	s.scheduleNext()
}

// ClientRT returns the sample of end-user response times (shared, do not
// mutate).
func (s *Source) ClientRT() *stats.Sample { return s.clientRT }

// Sent returns the number of submit attempts (including retransmissions).
//
//memca:keep the conservation tests check sent = completed + retransmitted + failed only through it
func (s *Source) Sent() uint64 { return s.client.Sent() }

// Retransmissions returns how many drops were retried.
//
//memca:keep the conservation and retransmission tests count retried drops only through it
func (s *Source) Retransmissions() uint64 { return s.client.Retransmissions() }

// Failures returns how many requests exhausted their retries (or were
// dropped with retransmission disabled).
//
//memca:keep the conservation and retransmission tests count abandoned requests only through it
func (s *Source) Failures() uint64 { return s.client.Failures() }
