// Package analytical implements the paper's closed-form queueing analysis
// of MemCA attacks on n-tier systems (Section IV-B, Equations 2-10): queue
// fill-up times per tier, the damage period of a burst, the drain period,
// the millibottleneck length, and the overall attack impact ρ. It also
// provides the inverse: planning attack parameters (D, L, I) that meet a
// damage goal under a stealthiness constraint.
//
// Conventions: tiers are indexed front-to-back, Tiers[0] is the front-most
// tier (tier 1, e.g. Apache) and Tiers[n-1] the bottleneck back-end (tier
// n, e.g. MySQL). ArrivalRate of tier i is the rate of requests whose
// deepest tier is i; the traffic a tier actually sees is the sum over it
// and all deeper tiers, because every request to a downstream tier passes
// through all upstream tiers.
package analytical

import (
	"errors"
	"fmt"
	"time"
)

// ErrInfeasible is returned when no attack parameters within the search
// space meet the requested damage and stealth goals, and (wrapped with
// the offending tier) when a model is overloaded before any attack: a
// tier whose offered load already meets or exceeds its attack-free
// capacity has no stable baseline for the equations to perturb.
var ErrInfeasible = errors.New("analytical: no feasible attack parameters")

// Tier holds the per-tier parameters of Table I.
type Tier struct {
	// Name is a label for reports ("apache", "tomcat", "mysql").
	Name string
	// Queue is Q_i: the tier's concurrency limit (threads/connections).
	Queue int
	// CapacityOFF is C_i,OFF: the tier's service rate in requests/second
	// without interference.
	CapacityOFF float64
	// ArrivalRate is λ_i: the rate of legitimate requests terminating at
	// this tier, in requests/second.
	ArrivalRate float64
}

// Model is an n-tier system under the paper's assumptions: Poisson
// arrivals, exponential capacities, synchronous RPC between consecutive
// tiers, and the back-most tier as the attack target.
type Model struct {
	Tiers []Tier
}

// Attack is one MemCA parameterization: the capacity of the bottleneck
// tier is multiplied by D during ON bursts of length L, repeating every I.
type Attack struct {
	// D is the degradation index: C_n,ON = D * C_n,OFF (Equations 2-3).
	D float64
	// L is the burst length.
	L time.Duration
	// I is the interval between consecutive burst starts.
	I time.Duration
}

// Validate reports the first parameter error, or nil.
func (a Attack) Validate() error {
	switch {
	case a.D < 0 || a.D > 1:
		return fmt.Errorf("analytical: D must be in [0,1], got %v", a.D)
	case a.L <= 0:
		return fmt.Errorf("analytical: burst length L must be positive, got %v", a.L)
	case a.I <= 0:
		return fmt.Errorf("analytical: burst interval I must be positive, got %v", a.I)
	case a.L > a.I:
		return fmt.Errorf("analytical: burst length %v exceeds interval %v", a.L, a.I)
	}
	return nil
}

// Validate reports the first model error, or nil.
func (m Model) Validate() error {
	if len(m.Tiers) == 0 {
		return errors.New("analytical: model needs at least one tier")
	}
	for i, t := range m.Tiers {
		if t.Queue <= 0 {
			return fmt.Errorf("analytical: tier %d (%s) queue must be positive, got %d", i, t.Name, t.Queue)
		}
		if t.CapacityOFF <= 0 {
			return fmt.Errorf("analytical: tier %d (%s) capacity must be positive, got %v", i, t.Name, t.CapacityOFF)
		}
		if t.ArrivalRate < 0 {
			return fmt.Errorf("analytical: tier %d (%s) arrival rate must be non-negative, got %v", i, t.Name, t.ArrivalRate)
		}
	}
	return nil
}

// Bottleneck returns the back-most tier (tier n), the attack target.
func (m Model) Bottleneck() Tier { return m.Tiers[len(m.Tiers)-1] }

// CheckStability verifies every tier has attack-free headroom: the
// traffic a tier sees stays strictly below its CapacityOFF. A tier at or
// over capacity before any attack makes the model's fade-off equations
// meaningless (its queue never drains), so Predict and PlanAttack refuse
// such models with an error wrapping ErrInfeasible.
func (m Model) CheckStability() error {
	for i, t := range m.Tiers {
		if seen := m.SeenRate(i); seen >= t.CapacityOFF {
			return fmt.Errorf("analytical: tier %d (%s) offered load %v req/s >= C_OFF %v req/s before any attack: %w",
				i+1, t.Name, seen, t.CapacityOFF, ErrInfeasible)
		}
	}
	return nil
}

// SeenRate returns the total request rate tier i sees: the sum of arrival
// rates of tier i and every deeper tier.
func (m Model) SeenRate(i int) float64 {
	var sum float64
	for j := i; j < len(m.Tiers); j++ {
		sum += m.Tiers[j].ArrivalRate
	}
	return sum
}

// CheckCondition1 verifies Q_1 > Q_2 > ... > Q_n (the realistic n-tier
// configuration the fill-up equations assume).
func (m Model) CheckCondition1() error {
	for i := 1; i < len(m.Tiers); i++ {
		if m.Tiers[i-1].Queue <= m.Tiers[i].Queue {
			return fmt.Errorf("analytical: condition 1 violated: Q_%d (%d) <= Q_%d (%d)",
				i, m.Tiers[i-1].Queue, i+1, m.Tiers[i].Queue)
		}
	}
	return nil
}

// CheckCondition2 verifies λ_n > C_n,ON: the attack degrades the
// bottleneck below its arrival rate so its queue actually fills.
func (m Model) CheckCondition2(a Attack) error {
	bn := m.Bottleneck()
	cON := a.D * bn.CapacityOFF
	if bn.ArrivalRate <= cON {
		return fmt.Errorf("analytical: condition 2 violated: λ_n (%v) <= C_n,ON (%v); attack too weak to fill the bottleneck queue",
			bn.ArrivalRate, cON)
	}
	return nil
}

// Prediction is the closed-form outcome of one attack parameterization.
type Prediction struct {
	// CnON is the degraded bottleneck capacity during bursts (Eq 3).
	CnON float64
	// FillTimes[i] is l_{i+1},UP: the time to fill tier i's queue once
	// all deeper queues are full (Equations 4-6). Index matches
	// Model.Tiers. A fill time of -1 marks a tier whose queue never
	// fills within the build-up cascade (rate deficit non-positive).
	FillTimes []time.Duration
	// TotalFill is the build-up stage length: the sum of fill times from
	// the bottleneck up to the front, truncated at the first tier that
	// never fills.
	TotalFill time.Duration
	// QueuesAllFill reports whether the cascade reaches the front tier,
	// i.e. the hold-on stage (drops + retransmissions) is reached.
	QueuesAllFill bool
	// DamagePeriod is P_D = L - Σ l_i,UP (Eq 7), clamped at 0.
	DamagePeriod time.Duration
	// DrainTime is l_n,DOWN = Q_n / (C_n,OFF - λ_n) (Eq 9).
	DrainTime time.Duration
	// Millibottleneck is P_MB = L + l_n,DOWN (Eq 10).
	Millibottleneck time.Duration
	// Impact is ρ = P_D / I (Eq 8): the fraction of time the system
	// spends in the maximum-damage hold-on stage.
	Impact float64
}

func durationFromSeconds(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	const maxSecs = float64(1<<63-1) / float64(time.Second)
	if s >= maxSecs {
		return 1<<63 - 1
	}
	return time.Duration(s * float64(time.Second))
}

// addSat adds two non-negative durations, saturating at the maximum
// representable duration instead of overflowing.
func addSat(a, b time.Duration) time.Duration {
	const max = 1<<63 - 1
	if a > max-b {
		return max
	}
	return a + b
}

// Predict evaluates Equations (2)-(10) for the given attack.
func (m Model) Predict(a Attack) (Prediction, error) {
	if err := m.Validate(); err != nil {
		return Prediction{}, err
	}
	if err := a.Validate(); err != nil {
		return Prediction{}, err
	}
	if err := m.CheckStability(); err != nil {
		return Prediction{}, err
	}
	n := len(m.Tiers)
	bn := m.Bottleneck()
	p := Prediction{
		CnON:      a.D * bn.CapacityOFF,
		FillTimes: make([]time.Duration, n),
	}

	// Build-up: fill the bottleneck queue first (Eq 4), then walk
	// upstream (Eq 5-6). The cascade stops at the first tier whose
	// inflow deficit is non-positive.
	cascade := true
	for i := n - 1; i >= 0; i-- {
		deficit := m.SeenRate(i) - p.CnON
		var slots int
		if i == n-1 {
			slots = m.Tiers[i].Queue
		} else {
			slots = m.Tiers[i].Queue - m.Tiers[i+1].Queue
		}
		if !cascade || deficit <= 0 || slots < 0 {
			p.FillTimes[i] = -1
			cascade = false
			continue
		}
		p.FillTimes[i] = durationFromSeconds(float64(slots) / deficit)
		p.TotalFill = addSat(p.TotalFill, p.FillTimes[i])
	}
	p.QueuesAllFill = cascade

	// Hold-on: damage period (Eq 7) exists only when the cascade
	// completes within the burst.
	if p.QueuesAllFill && a.L > p.TotalFill {
		p.DamagePeriod = a.L - p.TotalFill
	}
	p.Impact = float64(p.DamagePeriod) / float64(a.I)

	// Fade-off: drain of the bottleneck queue (Eq 9) and the
	// millibottleneck period (Eq 10). CheckStability guarantees the
	// drain rate is strictly positive here.
	drainRate := bn.CapacityOFF - bn.ArrivalRate
	p.DrainTime = durationFromSeconds(float64(bn.Queue) / drainRate)
	p.Millibottleneck = a.L + p.DrainTime
	return p, nil
}

// Goal states the attacker's objectives from Section IV: enough damage
// (ρ at or above MinImpact, e.g. 0.05 for "p95 > 1 s with I = 2 s") while
// staying stealthy (millibottleneck no longer than MaxMillibottleneck).
type Goal struct {
	// MinImpact is the minimum acceptable ρ = P_D / I.
	MinImpact float64
	// MaxMillibottleneck bounds P_MB for stealth (e.g. < 1 s).
	MaxMillibottleneck time.Duration
}

// PlanAttack searches for attack parameters meeting the goal at the given
// burst interval. It scans the degradation index downward (stronger
// attacks first would be less stealthy, so it prefers the weakest D that
// works) and derives the burst length from the required damage period.
func PlanAttack(m Model, goal Goal, interval time.Duration) (Attack, error) {
	if err := m.Validate(); err != nil {
		return Attack{}, err
	}
	if interval <= 0 {
		return Attack{}, fmt.Errorf("analytical: interval must be positive, got %v", interval)
	}
	if goal.MinImpact < 0 || goal.MinImpact >= 1 {
		return Attack{}, fmt.Errorf("analytical: MinImpact must be in [0,1), got %v", goal.MinImpact)
	}
	if err := m.CheckStability(); err != nil {
		return Attack{}, err
	}
	if err := m.CheckCondition1(); err != nil {
		return Attack{}, err
	}

	neededDamage := time.Duration(goal.MinImpact * float64(interval))
	var best *Attack
	for d := 0.95; d >= 0; d -= 0.01 {
		candidate := Attack{D: d, L: interval, I: interval}
		if m.CheckCondition2(candidate) != nil {
			continue // attack too weak at this D
		}
		pred, err := m.Predict(candidate)
		if err != nil {
			return Attack{}, err
		}
		if !pred.QueuesAllFill || pred.TotalFill > interval {
			continue
		}
		l := pred.TotalFill + neededDamage
		if l > interval {
			continue // cannot fit the burst in the interval
		}
		candidate.L = l
		pred, err = m.Predict(candidate)
		if err != nil {
			return Attack{}, err
		}
		if pred.Impact < goal.MinImpact {
			continue
		}
		if goal.MaxMillibottleneck > 0 && pred.Millibottleneck > goal.MaxMillibottleneck {
			continue
		}
		// Prefer the weakest feasible attack (largest D) with the
		// shortest burst: first hit wins since we scan D downward.
		cp := candidate
		best = &cp
		break
	}
	if best == nil {
		return Attack{}, ErrInfeasible
	}
	return *best, nil
}

// RUBBoS3Tier returns the model parameters matching the reproduction's
// RUBBoS-style deployment (spec.RUBBoSSystem): Apache, Tomcat, MySQL with
// descending concurrency limits, MySQL as the bottleneck, and arrival
// rates for 3500 users with 7 s mean think time (≈ 500 req/s total, a
// rounded 10/20/70% web/app/db mix; the simulated chain's is 7/13/80%).
func RUBBoS3Tier() Model {
	return Model{Tiers: []Tier{
		{Name: "apache", Queue: 100, CapacityOFF: 3330, ArrivalRate: 50},
		{Name: "tomcat", Queue: 60, CapacityOFF: 1670, ArrivalRate: 100},
		{Name: "mysql", Queue: 25, CapacityOFF: 920, ArrivalRate: 350},
	}}
}
