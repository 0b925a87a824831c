// Package queueing implements the discrete-event n-tier queueing network at
// the center of the MemCA study: finite per-tier concurrency (thread
// pools), synchronous RPC slot-holding across tiers, multi-server FCFS
// service with fluid capacity modulation (the millibottleneck lever), drop
// at the front tier with TCP retransmission, and a classic tandem-queue
// baseline for comparison (the paper's Figures 6 and 7).
package queueing

import (
	"fmt"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// Mode selects the inter-tier coupling model.
type Mode int

// Modes.
const (
	// ModeNTierRPC is the paper's system model: a request holds one
	// concurrency slot in every tier it has entered until its response
	// returns, so a full downstream queue back-pressures all upstream
	// tiers and overflow propagates toward the front (Figure 6b).
	ModeNTierRPC Mode = iota + 1
	// ModeTandem is the classic tandem-queue baseline: tiers are
	// independent, a request occupies only its current tier, and queued
	// work piles up exclusively at the bottleneck (Figure 6a).
	ModeTandem
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNTierRPC:
		return "ntier-rpc"
	case ModeTandem:
		return "tandem"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Infinite marks an unbounded queue limit.
const Infinite = 0

// TierConfig describes one tier of the system.
type TierConfig struct {
	// Name labels the tier in reports ("apache", "tomcat", "mysql").
	Name string
	// QueueLimit is Q_i: the maximum number of requests the tier admits
	// concurrently (in service plus waiting), i.e. its thread/connection
	// pool size. Infinite (0) means unbounded.
	QueueLimit int
	// Servers is the number of parallel service stations (vCPUs or
	// worker processes actually executing).
	Servers int
	// Service is the base service-time distribution of one request at
	// this tier at full capacity.
	Service sim.Dist
}

// Validate reports the first tier configuration error, or nil.
func (c TierConfig) Validate() error {
	if c.QueueLimit < 0 {
		return fmt.Errorf("queueing: tier %q QueueLimit must be >= 0, got %d", c.Name, c.QueueLimit)
	}
	if c.Servers <= 0 {
		return fmt.Errorf("queueing: tier %q Servers must be positive, got %d", c.Name, c.Servers)
	}
	if c.Service == nil {
		return fmt.Errorf("queueing: tier %q needs a service-time distribution", c.Name)
	}
	if c.QueueLimit != Infinite && c.QueueLimit < c.Servers {
		return fmt.Errorf("queueing: tier %q QueueLimit %d below Servers %d", c.Name, c.QueueLimit, c.Servers)
	}
	return nil
}

// Class is a request class: how deep into the tier chain it travels and how
// its service demand scales per tier.
type Class struct {
	// Name labels the class ("static", "servlet", "db-read", ...).
	Name string
	// Depth is the index of the deepest tier the class reaches;
	// 0 touches only the front tier.
	Depth int
	// DemandScale multiplies each tier's base service time for this
	// class. Nil means 1.0 everywhere; otherwise it must have Depth+1
	// entries.
	DemandScale []float64
}

// Config assembles a network.
type Config struct {
	// Mode selects RPC slot-holding or the tandem baseline.
	Mode Mode
	// Tiers lists tiers front to back; Tiers[0] faces the clients.
	Tiers []TierConfig
	// Classes lists request classes; Submit refers to them by index.
	Classes []Class
	// Retransmit governs how every Client of the network retries a
	// dropped request. The zero policy turns retransmission off: every
	// drop is final.
	Retransmit RetransmitPolicy
	// Observer, when non-nil, receives every request lifecycle event (see
	// SpanKind). Nil costs one branch per lifecycle point and nothing
	// else, keeping the uninstrumented hot path identical to a network
	// built without observation.
	Observer Observer
	// Arena backs the per-tier samples and level integrators (and those
	// of sources bound to the network) and keeps the network's request,
	// retry, service-run and ring pools; it is required. The caller owns
	// the arena's lifecycle: it must outlive the network, and its Reset
	// ends the network, which must not be used or read afterwards.
	Arena *stats.Arena
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if c.Mode != ModeNTierRPC && c.Mode != ModeTandem {
		return fmt.Errorf("queueing: unknown mode %v", c.Mode)
	}
	if len(c.Tiers) == 0 {
		return fmt.Errorf("queueing: need at least one tier")
	}
	if c.Arena == nil {
		return fmt.Errorf("queueing: Arena must not be nil")
	}
	if err := c.Retransmit.Validate(); err != nil {
		return err
	}
	for _, t := range c.Tiers {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("queueing: need at least one request class")
	}
	for i, cl := range c.Classes {
		if cl.Depth < 0 || cl.Depth >= len(c.Tiers) {
			return fmt.Errorf("queueing: class %d (%s) depth %d out of range [0,%d)", i, cl.Name, cl.Depth, len(c.Tiers))
		}
		if cl.DemandScale != nil && len(cl.DemandScale) != cl.Depth+1 {
			return fmt.Errorf("queueing: class %d (%s) has %d demand scales, want %d", i, cl.Name, len(cl.DemandScale), cl.Depth+1)
		}
		for j, s := range cl.DemandScale {
			if s <= 0 {
				return fmt.Errorf("queueing: class %d (%s) demand scale %d must be positive, got %v", i, cl.Name, j, s)
			}
		}
	}
	return nil
}

// RetransmitPolicy models TCP SYN retransmission for requests dropped by
// the full front tier, per RFC 6298: the initial retransmission timeout is
// at least one second and backs off exponentially.
type RetransmitPolicy struct {
	// RTOMin is the initial retransmission timeout (RFC 6298 floor: 1 s).
	RTOMin time.Duration
	// Backoff multiplies the timeout per successive retry.
	Backoff float64
	// MaxRetries bounds retransmission attempts; beyond it the request
	// fails permanently.
	MaxRetries int
}

// DefaultRetransmit returns the RFC 6298 minimum-RTO policy the paper
// invokes: 1 s initial timeout, doubling, up to 6 retries.
func DefaultRetransmit() RetransmitPolicy {
	return RetransmitPolicy{RTOMin: time.Second, Backoff: 2, MaxRetries: 6}
}

// RTO returns the timeout preceding the given retry attempt (attempt 1 is
// the first retransmission).
func (p RetransmitPolicy) RTO(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	rto := p.RTOMin.Seconds()
	for i := 1; i < attempt; i++ {
		rto *= p.Backoff
	}
	const maxSecs = float64(1<<62) / float64(time.Second)
	if rto > maxSecs {
		rto = maxSecs
	}
	return time.Duration(rto * float64(time.Second))
}

// Validate reports the first policy error, or nil. The zero policy is
// valid: it turns retransmission off.
func (p RetransmitPolicy) Validate() error {
	if p == (RetransmitPolicy{}) {
		return nil
	}
	if p.RTOMin <= 0 {
		return fmt.Errorf("queueing: RTOMin must be positive, got %v", p.RTOMin)
	}
	if p.Backoff < 1 {
		return fmt.Errorf("queueing: Backoff must be >= 1, got %v", p.Backoff)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("queueing: MaxRetries must be >= 0, got %d", p.MaxRetries)
	}
	return nil
}
