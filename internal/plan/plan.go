package plan

import (
	"errors"
	"fmt"
	"sort"

	"memca/internal/spec"
)

// ErrNoFeasibleSizing is returned when no sizing within the search caps
// holds the SLO under the worst-case stealthy attack.
var ErrNoFeasibleSizing = errors.New("plan: no feasible sizing within the search caps")

// Request is one planning problem: size the system templates for the
// traffic forecast so the SLO holds attack-free and under the adversary.
type Request struct {
	// System holds the per-replica tier templates. Replica counts in the
	// request are the per-tier minimums the search starts from.
	System spec.System
	// Traffic is the forecast; the planner sizes for its peak.
	Traffic spec.Traffic
	// SLO is the objective the sizing must hold.
	SLO spec.SLO
	// Adversary bounds the attacker (zero value: DefaultAdversary).
	Adversary Adversary
	// Options tune the search (zero value: the defaults documented on
	// Options' fields).
	Options Options
}

// Options cap the sizing search.
type Options struct {
	// MaxReplicas caps every tier's replica count. Zero means 8.
	MaxReplicas int
	// ThreadScales are the per-replica thread-pool multipliers the search
	// may apply uniformly across tiers (deeper queues lengthen the
	// attacker's fill and drain times at no server cost). Empty means
	// {1, 2, 4}.
	ThreadScales []int
}

func (o Options) maxReplicas() int {
	if o.MaxReplicas <= 0 {
		return 8
	}
	return o.MaxReplicas
}

func (o Options) threadScales() []int {
	if len(o.ThreadScales) == 0 {
		return []int{1, 2, 4}
	}
	return o.ThreadScales
}

// Validate reports the first option error, or nil.
func (o Options) Validate() error {
	if o.MaxReplicas < 0 {
		return fmt.Errorf("plan: MaxReplicas must be non-negative, got %d", o.MaxReplicas)
	}
	for _, s := range o.ThreadScales {
		if s <= 0 {
			return fmt.Errorf("plan: thread scales must be positive, got %d", s)
		}
	}
	return nil
}

// Cost orders sizings: servers are machines (the expensive axis), pooled
// threads are memory and connection state (the tie-breaker).
type Cost struct {
	// Servers is the fleet-wide station count across tiers.
	Servers int `json:"servers"`
	// Threads is the fleet-wide pooled thread count across tiers.
	Threads int `json:"threads"`
}

// Less orders by servers, then threads.
func (c Cost) Less(d Cost) bool {
	if c.Servers != d.Servers {
		return c.Servers < d.Servers
	}
	return c.Threads < d.Threads
}

// Sizing is one point of the search space: per-tier replica counts plus a
// uniform thread-pool scale applied to the templates.
type Sizing struct {
	// Replicas[i] is tier i's replica count.
	Replicas []int `json:"replicas"`
	// ThreadScale multiplies every tier's per-replica thread pool.
	ThreadScale int `json:"thread_scale"`
	// System is the materialized system (templates scaled and
	// replicated).
	System spec.System `json:"system"`
	// Cost is the sizing's fleet-wide cost.
	Cost Cost `json:"cost"`
}

// materialize applies the sizing knobs to the request's templates.
func materialize(base spec.System, replicas []int, scale int) (Sizing, error) {
	sys, err := base.WithReplicas(replicas)
	if err != nil {
		return Sizing{}, err
	}
	for i := range sys.Tiers {
		sys.Tiers[i].Threads *= scale
	}
	s := Sizing{
		Replicas:    append([]int(nil), replicas...),
		ThreadScale: scale,
		System:      sys,
	}
	for _, t := range sys.Tiers {
		s.Cost.Servers += t.PooledServers()
		s.Cost.Threads += t.PooledThreads()
	}
	return s, nil
}

// Result is the planner's verdict.
type Result struct {
	// Sizing is the cheapest feasible sizing.
	Sizing Sizing `json:"sizing"`
	// Assessment is the oracle's verdict on the chosen sizing at the
	// forecast peak.
	Assessment Assessment `json:"assessment"`
	// MaxClientsOff / MaxRateOff are the largest client population and
	// peak request rate the sizing sustains attack-free within the SLO.
	MaxClientsOff int     `json:"max_clients_off"`
	MaxRateOff    float64 `json:"max_rate_off"`
	// MaxClientsOn / MaxRateOn are the same under the worst-case stealthy
	// attack.
	MaxClientsOn int     `json:"max_clients_on"`
	MaxRateOn    float64 `json:"max_rate_on"`
	// NextSmaller is the chosen sizing with one bottleneck replica
	// removed — the minimality witness the validation harness replays
	// through the simulator. Nil when the bottleneck is already at the
	// search minimum.
	NextSmaller *Sizing `json:"next_smaller,omitempty"`
	// NextSmallerAssessment explains why NextSmaller fails (nil with
	// NextSmaller). A NextSmaller violating condition 1 gets a synthetic
	// assessment with OKOn false.
	NextSmallerAssessment *Assessment `json:"next_smaller_assessment,omitempty"`
	// Evaluated counts the candidates the oracle scored before the first
	// feasible one.
	Evaluated int `json:"evaluated"`
}

// Solve searches the sizing space in ascending cost order and returns the
// first (hence cheapest) sizing whose oracle verdict holds the SLO under
// the worst-case stealthy attack. The enumeration order is total and
// deterministic — cost, then replicas lexicographically, then thread
// scale — so minimality is by construction: every cheaper candidate was
// scored and rejected.
func Solve(req Request) (Result, error) {
	if err := req.System.Validate(); err != nil {
		return Result{}, err
	}
	if err := req.Traffic.Validate(); err != nil {
		return Result{}, err
	}
	if err := req.SLO.Validate(); err != nil {
		return Result{}, err
	}
	adv := req.Adversary
	if len(adv.Intervals) == 0 && adv.MaxMillibottleneck == 0 && adv.RTOMin == 0 {
		adv = DefaultAdversary()
	}
	if err := adv.Validate(); err != nil {
		return Result{}, err
	}
	if err := req.Options.Validate(); err != nil {
		return Result{}, err
	}

	candidates, err := enumerate(req.System, req.Options)
	if err != nil {
		return Result{}, err
	}

	res := Result{}
	for _, cand := range candidates {
		// The analytical adversary model assumes condition 1; sizings
		// breaking it are outside the model and never selected.
		if cand.System.CheckCondition1() != nil {
			continue
		}
		res.Evaluated++
		a, err := Evaluate(cand.System, req.Traffic, req.SLO, adv)
		if err != nil {
			return Result{}, err
		}
		if !a.OKOn {
			continue
		}
		res.Sizing = cand
		res.Assessment = a

		if err := res.fillRates(req, adv); err != nil {
			return Result{}, err
		}
		if err := res.fillNextSmaller(req, adv); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	return Result{}, fmt.Errorf("%w: %d candidates scored (caps: %d replicas/tier, thread scales %v)",
		ErrNoFeasibleSizing, res.Evaluated, req.Options.maxReplicas(), req.Options.threadScales())
}

// enumerate builds every sizing within the caps, sorted ascending by
// cost with deterministic tie-breakers.
func enumerate(base spec.System, opts Options) ([]Sizing, error) {
	n := len(base.Tiers)
	maxR := opts.maxReplicas()
	scales := append([]int(nil), opts.threadScales()...)
	sort.Ints(scales)

	minReplicas := make([]int, n)
	for i, t := range base.Tiers {
		minReplicas[i] = 1
		if t.Replicas > 1 {
			minReplicas[i] = t.Replicas
		}
	}

	var out []Sizing
	replicas := append([]int(nil), minReplicas...)
	for {
		for _, scale := range scales {
			s, err := materialize(base, replicas, scale)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		// Odometer increment over [min..max]^n.
		i := n - 1
		for ; i >= 0; i-- {
			replicas[i]++
			if replicas[i] <= maxR {
				break
			}
			replicas[i] = minReplicas[i]
		}
		if i < 0 {
			break
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Cost != out[b].Cost {
			return out[a].Cost.Less(out[b].Cost)
		}
		for i := range out[a].Replicas {
			if out[a].Replicas[i] != out[b].Replicas[i] {
				return out[a].Replicas[i] < out[b].Replicas[i]
			}
		}
		return out[a].ThreadScale < out[b].ThreadScale
	})
	return out, nil
}

// fillRates bisects the largest sustainable client populations,
// attack-free and under attack, for the chosen sizing. Attack-free
// feasibility is monotone in load (the M/M/c tail only grows), so that
// bound is exact. Attacked feasibility is not: near saturation the
// bottleneck's drain time (Eq 9) blows past the stealth bound and the
// attack becomes infeasible again, so the feasible set can have holes.
// The search therefore seeds at the forecast population — feasible by
// construction, Solve just verified it — and reports the boundary of the
// feasible region containing it.
func (r *Result) fillRates(req Request, adv Adversary) error {
	sys := r.Sizing.System

	// Upper bound: the population that saturates the tightest tier.
	rates, err := req.Traffic.TierRates(len(sys.Tiers))
	if err != nil {
		return err
	}
	total := 0.0
	for _, rate := range rates {
		total += rate
	}
	limit := 0.0
	for i, t := range sys.Tiers {
		seen := 0.0
		for j := i; j < len(rates); j++ {
			seen += rates[j]
		}
		if seen <= 0 {
			continue
		}
		tierLimit := t.Capacity() * total / seen
		if limit == 0 || tierLimit < limit {
			limit = tierLimit
		}
	}
	peakPerClient := req.Traffic.PeakMultiplier() / req.Traffic.ThinkTime.Seconds()
	hi := int(limit/peakPerClient) + 2
	if hi <= req.Traffic.Clients {
		hi = req.Traffic.Clients + 1
	}

	okAt := func(clients int, attacked bool) (bool, error) {
		if clients <= 0 {
			return true, nil
		}
		t := req.Traffic
		t.Clients = clients
		a, err := Evaluate(sys, t, req.SLO, adv)
		if err != nil {
			return false, err
		}
		if attacked {
			return a.OKOn, nil
		}
		return a.OKOff, nil
	}

	search := func(attacked bool) (int, error) {
		lo, high := req.Traffic.Clients, hi
		for high-lo > 1 {
			mid := lo + (high-lo)/2
			ok, err := okAt(mid, attacked)
			if err != nil {
				return 0, err
			}
			if ok {
				lo = mid
			} else {
				high = mid
			}
		}
		return lo, nil
	}

	if r.MaxClientsOff, err = search(false); err != nil {
		return err
	}
	if r.MaxClientsOn, err = search(true); err != nil {
		return err
	}
	r.MaxRateOff = rateAt(req.Traffic, r.MaxClientsOff)
	r.MaxRateOn = rateAt(req.Traffic, r.MaxClientsOn)
	return nil
}

// rateAt is the peak request rate of the forecast at the given
// population.
func rateAt(t spec.Traffic, clients int) float64 {
	t.Clients = clients
	if clients <= 0 {
		return 0
	}
	return t.PeakRate()
}

// fillNextSmaller scores the minimality witness: the chosen sizing with
// one bottleneck replica removed.
func (r *Result) fillNextSmaller(req Request, adv Adversary) error {
	replicas := append([]int(nil), r.Sizing.Replicas...)
	last := len(replicas) - 1
	if replicas[last] <= 1 {
		return nil
	}
	replicas[last]--
	smaller, err := materialize(req.System, replicas, r.Sizing.ThreadScale)
	if err != nil {
		return err
	}
	r.NextSmaller = &smaller
	if err := smaller.System.CheckCondition1(); err != nil {
		r.NextSmallerAssessment = &Assessment{Reason: err.Error()}
		return nil
	}
	a, err := Evaluate(smaller.System, req.Traffic, req.SLO, adv)
	if err != nil {
		return err
	}
	r.NextSmallerAssessment = &a
	return nil
}
