// Package spec defines the shared system/traffic/SLO vocabulary of the
// reproduction: one description of an n-tier deployment, its offered
// traffic, and its service-level objective that feeds the capacity planner
// (internal/plan), the simulator (core.Config.FromSpec and its default
// topology) and the live chain (victimd.StartSystem) alike. The types
// are pure data — conversions to the consumers' native configurations live
// with the consumers, so this package depends only on the analytical model it
// parameterizes. PlanJSON is the sections' file form: core.Load reads it as
// the system/traffic/slo part of the one config document that memca-sim and
// memca-plan share.
package spec

import (
	"fmt"
	"time"

	"memca/internal/analytical"
)

// TierSpec describes one tier of an n-tier deployment as a per-replica
// template: the planner and the simulator scale it by Replicas into a
// pooled multi-server station behind an ideal balancer.
type TierSpec struct {
	// Name labels the tier ("apache", "tomcat", "mysql").
	Name string `json:"name"`
	// Threads is the per-replica concurrency limit Q_i: the thread or
	// connection pool size, which is also the replica's queue depth
	// (admitted = in service + waiting).
	Threads int `json:"threads"`
	// Servers is the per-replica count of parallel service stations
	// (vCPUs actually executing).
	Servers int `json:"servers"`
	// Service is the mean base service time of one request at this tier
	// at full capacity (exponentially distributed in the simulator).
	Service time.Duration `json:"service"`
	// DemandFactor is the workload's mean demand multiplier at this tier
	// (request classes that hit the tier harder than the base service
	// time raise it above 1). Effective per-replica capacity is
	// Servers / (Service * DemandFactor). Zero means 1.
	DemandFactor float64 `json:"demand_factor,omitempty"`
	// Replicas is the instance count (minimum 1). Zero means 1.
	Replicas int `json:"replicas,omitempty"`
}

// replicas returns the effective replica count (zero-value = 1).
func (t TierSpec) replicas() int {
	if t.Replicas <= 0 {
		return 1
	}
	return t.Replicas
}

// demandFactor returns the effective demand factor (zero-value = 1).
func (t TierSpec) demandFactor() float64 {
	if t.DemandFactor <= 0 {
		return 1
	}
	return t.DemandFactor
}

// PooledThreads is the fleet-wide concurrency limit: Threads * Replicas.
func (t TierSpec) PooledThreads() int { return t.Threads * t.replicas() }

// PooledServers is the fleet-wide station count: Servers * Replicas.
func (t TierSpec) PooledServers() int { return t.Servers * t.replicas() }

// Capacity is the fleet-wide service rate in requests/second under the
// workload's demand mix: PooledServers / (Service * DemandFactor).
func (t TierSpec) Capacity() float64 {
	return float64(t.PooledServers()) / (t.Service.Seconds() * t.demandFactor())
}

// Validate reports the first tier error, or nil.
func (t TierSpec) Validate() error {
	if t.Threads <= 0 {
		return fmt.Errorf("spec: tier %q Threads must be positive, got %d", t.Name, t.Threads)
	}
	if t.Servers <= 0 {
		return fmt.Errorf("spec: tier %q Servers must be positive, got %d", t.Name, t.Servers)
	}
	if t.Threads < t.Servers {
		return fmt.Errorf("spec: tier %q Threads %d below Servers %d", t.Name, t.Threads, t.Servers)
	}
	if t.Service <= 0 {
		return fmt.Errorf("spec: tier %q Service must be positive, got %v", t.Name, t.Service)
	}
	if t.DemandFactor < 0 {
		return fmt.Errorf("spec: tier %q DemandFactor must be non-negative, got %v", t.Name, t.DemandFactor)
	}
	if t.Replicas < 0 {
		return fmt.Errorf("spec: tier %q Replicas must be non-negative, got %d", t.Name, t.Replicas)
	}
	return nil
}

// System describes an n-tier deployment, front to back: Tiers[0] faces
// the clients, the last tier is the bottleneck back-end the MemCA
// adversary targets.
type System struct {
	Tiers []TierSpec `json:"tiers"`
}

// Validate reports the first system error, or nil.
func (s System) Validate() error {
	if len(s.Tiers) == 0 {
		return fmt.Errorf("spec: system needs at least one tier")
	}
	for _, t := range s.Tiers {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CheckCondition1 verifies the pooled concurrency limits descend front to
// back (Q_1 > Q_2 > ... > Q_n), the realistic n-tier configuration the
// analytical fill-up equations assume.
func (s System) CheckCondition1() error {
	for i := 1; i < len(s.Tiers); i++ {
		if s.Tiers[i-1].PooledThreads() <= s.Tiers[i].PooledThreads() {
			return fmt.Errorf("spec: condition 1 violated: pooled Q_%d (%d) <= Q_%d (%d)",
				i, s.Tiers[i-1].PooledThreads(), i+1, s.Tiers[i].PooledThreads())
		}
	}
	return nil
}

// WithReplicas returns a copy of the system with the given per-tier
// replica counts (len must match Tiers).
func (s System) WithReplicas(replicas []int) (System, error) {
	if len(replicas) != len(s.Tiers) {
		return System{}, fmt.Errorf("spec: %d replica counts for %d tiers", len(replicas), len(s.Tiers))
	}
	out := System{Tiers: make([]TierSpec, len(s.Tiers))}
	copy(out.Tiers, s.Tiers)
	for i, r := range replicas {
		if r <= 0 {
			return System{}, fmt.Errorf("spec: tier %d replicas must be positive, got %d", i, r)
		}
		out.Tiers[i].Replicas = r
	}
	return out, nil
}

// Model builds the analytical n-tier model (Equations 2-10) for the
// system under the given traffic: pooled queue limits and capacities from
// the tier templates, per-tier terminating arrival rates from the traffic
// mix. The traffic's tier mix must cover every tier.
func (s System) Model(t Traffic) (analytical.Model, error) {
	if err := s.Validate(); err != nil {
		return analytical.Model{}, err
	}
	rates, err := t.TierRates(len(s.Tiers))
	if err != nil {
		return analytical.Model{}, err
	}
	m := analytical.Model{Tiers: make([]analytical.Tier, len(s.Tiers))}
	for i, tier := range s.Tiers {
		m.Tiers[i] = analytical.Tier{
			Name:        tier.Name,
			Queue:       tier.PooledThreads(),
			CapacityOFF: tier.Capacity(),
			ArrivalRate: rates[i],
		}
	}
	return m, nil
}

// Traffic describes the offered load as a closed-loop client population
// plus a forecast shape: a growth multiplier and an optional diurnal
// cycle. The planner sizes for the forecast peak; the simulator runs the
// base population.
type Traffic struct {
	// Clients is the emulated user population.
	Clients int `json:"clients"`
	// ThinkTime is the mean think time between requests of one client.
	ThinkTime time.Duration `json:"think_time"`
	// Growth multiplies the offered load for provisioning headroom
	// (e.g. 1.5 plans for 50% organic growth). Zero means 1.
	Growth float64 `json:"growth,omitempty"`
	// Diurnal, when non-empty, is a cycle of non-negative load
	// multipliers (e.g. 24 hourly points of a day curve); the planner
	// sizes for the largest. Empty means a flat curve at 1.
	Diurnal []float64 `json:"diurnal,omitempty"`
	// TierMix[i] is the fraction of requests whose deepest tier is i
	// (the per-tier terminating shares; must sum to 1). Empty defaults
	// to the RUBBoS mix for 3 tiers.
	TierMix []float64 `json:"tier_mix,omitempty"`
}

// RUBBoSTierMix is the terminating-share mix the planner assumes for a
// 3-tier RUBBoS deployment: ~8% of requests on static content (web only),
// ~17% on servlets (app), and ~75% on the database. The simulated page
// chain (workload.RUBBoSProfile) terminates 0.070/0.126/0.804 instead.
var RUBBoSTierMix = []float64{0.08, 0.17, 0.75}

// growth returns the effective growth multiplier (zero-value = 1).
func (t Traffic) growth() float64 {
	if t.Growth <= 0 {
		return 1
	}
	return t.Growth
}

// PeakMultiplier is the forecast peak over the base load: the growth
// multiplier times the largest diurnal point (1 for a flat curve).
func (t Traffic) PeakMultiplier() float64 {
	peak := 1.0
	for _, v := range t.Diurnal {
		if v > peak {
			peak = v
		}
	}
	return peak * t.growth()
}

// OfferedRate approximates the base offered request rate in
// requests/second: Clients / ThinkTime, the closed-loop throughput when
// response times are small against think times.
func (t Traffic) OfferedRate() float64 {
	return float64(t.Clients) / t.ThinkTime.Seconds()
}

// PeakRate is OfferedRate scaled to the forecast peak.
func (t Traffic) PeakRate() float64 { return t.OfferedRate() * t.PeakMultiplier() }

// AtPeak returns the traffic with the forecast peak folded into the
// client population (growth and diurnal reset to flat): the population
// the simulator should run to reproduce the planner's peak.
func (t Traffic) AtPeak() Traffic {
	clients := int(float64(t.Clients)*t.PeakMultiplier() + 0.5)
	return Traffic{Clients: clients, ThinkTime: t.ThinkTime, TierMix: t.TierMix}
}

// TierRates returns the per-tier terminating request rates at the
// forecast peak for a system of n tiers, from the tier mix (or the
// RUBBoS default when the mix is empty and n is 3).
func (t Traffic) TierRates(n int) ([]float64, error) {
	mix := t.TierMix
	if len(mix) == 0 {
		if n != len(RUBBoSTierMix) {
			return nil, fmt.Errorf("spec: no tier mix given and no default for %d tiers", n)
		}
		mix = RUBBoSTierMix
	}
	if len(mix) != n {
		return nil, fmt.Errorf("spec: tier mix has %d entries for %d tiers", len(mix), n)
	}
	rate := t.PeakRate()
	rates := make([]float64, n)
	for i, f := range mix {
		rates[i] = rate * f
	}
	return rates, nil
}

// Validate reports the first traffic error, or nil.
func (t Traffic) Validate() error {
	if t.Clients <= 0 {
		return fmt.Errorf("spec: Clients must be positive, got %d", t.Clients)
	}
	if t.ThinkTime <= 0 {
		return fmt.Errorf("spec: ThinkTime must be positive, got %v", t.ThinkTime)
	}
	if t.Growth < 0 {
		return fmt.Errorf("spec: Growth must be non-negative, got %v", t.Growth)
	}
	for i, v := range t.Diurnal {
		if v < 0 {
			return fmt.Errorf("spec: Diurnal[%d] must be non-negative, got %v", i, v)
		}
	}
	if len(t.TierMix) > 0 {
		sum := 0.0
		for i, f := range t.TierMix {
			if f < 0 {
				return fmt.Errorf("spec: TierMix[%d] must be non-negative, got %v", i, f)
			}
			sum += f
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return fmt.Errorf("spec: TierMix sums to %v, want 1", sum)
		}
	}
	return nil
}

// SLO is the service-level objective a sizing must hold.
type SLO struct {
	// Percentile selects the response-time quantile the objective binds
	// (e.g. 99 for p99). Zero means 99.
	Percentile float64 `json:"percentile,omitempty"`
	// TargetRT bounds the percentile response time.
	TargetRT time.Duration `json:"target_rt"`
	// MaxDropRate bounds the fraction of requests dropped by the full
	// front tier (TCP SYN losses the client retransmits after >= 1 s).
	MaxDropRate float64 `json:"max_drop_rate"`
}

// EffectivePercentile returns the quantile the objective binds
// (zero-value = 99).
func (s SLO) EffectivePercentile() float64 {
	if s.Percentile <= 0 {
		return 99
	}
	return s.Percentile
}

// Validate reports the first SLO error, or nil.
func (s SLO) Validate() error {
	p := s.EffectivePercentile()
	if p <= 0 || p >= 100 {
		return fmt.Errorf("spec: Percentile must be in (0,100), got %v", p)
	}
	if s.TargetRT <= 0 {
		return fmt.Errorf("spec: TargetRT must be positive, got %v", s.TargetRT)
	}
	if s.MaxDropRate < 0 || s.MaxDropRate >= 1 {
		return fmt.Errorf("spec: MaxDropRate must be in [0,1), got %v", s.MaxDropRate)
	}
	return nil
}

// RUBBoSSystem returns the per-replica tier templates of the
// reproduction's RUBBoS deployment, the simulator's default topology:
// two vCPUs per tier (the paper's c3.large) and descending pools. The
// demand factors fold the request mix's per-tier demand scaling in, so
// each tier's Capacity matches the effective capacities of
// analytical.RUBBoS3Tier (the simulator's request classes scale demand
// themselves: about 1.10 at tomcat and 1.59 at mysql).
func RUBBoSSystem() System {
	return System{Tiers: []TierSpec{
		{Name: "apache", Threads: 100, Servers: 2, Service: 600 * time.Microsecond, DemandFactor: 1.0, Replicas: 1},
		{Name: "tomcat", Threads: 60, Servers: 2, Service: 1200 * time.Microsecond, DemandFactor: 1.0, Replicas: 1},
		{Name: "mysql", Threads: 25, Servers: 2, Service: 1600 * time.Microsecond, DemandFactor: 1.36, Replicas: 1},
	}}
}

// RUBBoSTraffic returns the paper's evaluation population: 3500 clients
// with 7 s mean think time, flat forecast.
func RUBBoSTraffic() Traffic {
	return Traffic{Clients: 3500, ThinkTime: 7 * time.Second}
}

// DefaultSLO returns a provisioning objective in the spirit of the
// paper's damage goal, inverted: keep the client p99 under 500 ms and
// drop fewer than 1% of requests.
func DefaultSLO() SLO {
	return SLO{Percentile: 99, TargetRT: 500 * time.Millisecond, MaxDropRate: 0.01}
}
