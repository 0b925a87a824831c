package figures

import (
	"fmt"
	"time"

	"memca/internal/plan"
	"memca/internal/spec"
	"memca/internal/stats"
)

// PlannerResult captures the capacity-planner validation sweep: the
// memca-plan solver's sizing verdicts replayed through the closed-loop
// simulator across a load grid and seed set.
type PlannerResult struct {
	// Cells and Runs count the grid points and (cell, seed) simulations.
	Cells int
	Runs  int
	// AllSizedOK reports every chosen sizing met the SLO in simulation.
	AllSizedOK bool
	// AllSmallerViolate reports every minimality witness (one bottleneck
	// replica fewer) broke the SLO in simulation.
	AllSmallerViolate bool
	// MaxSizedP99 is the worst simulated p99 across the chosen sizings —
	// the planner's safety margin is TargetRT minus this.
	MaxSizedP99 time.Duration
	// MinSmallerP99 is the best simulated p99 across the witnesses — the
	// cliff's far side; it exceeding TargetRT is the minimality claim.
	MinSmallerP99 time.Duration
}

func init() {
	registerDist(DistDriver{Name: "planner", New: newPlannerRun})
}

// newPlannerRun prepares the planner-validation driver. plan.Solve runs
// once per process here (plan.NewValidation), so every worker sizes the
// grid identically and the per-index jobs stay sim-only; each job record
// is one plan.CellResult (no map fields, stable bytes).
func newPlannerRun(opts Options) (*DistRun, error) {
	vopts := plan.ValidateOptions{
		BaseSeed: opts.Seed,
		Duration: opts.duration(160 * time.Second),
	}
	v, err := plan.NewValidation(spec.DefaultSLO(), vopts)
	if err != nil {
		return nil, err
	}
	return newRun(v.Jobs(), func(_ *stats.Arena, i int) (plan.CellResult, error) {
		// Planner runs manage their own stats (see plan.Validate); the
		// worker arena is unused here.
		return v.Run(i)
	}, func(results []plan.CellResult) (any, string, error) {
		res := &PlannerResult{
			Cells:             len(plan.DefaultGrid()),
			Runs:              len(results),
			AllSizedOK:        true,
			AllSmallerViolate: true,
		}
		for i, r := range results {
			if !r.SizedOK {
				res.AllSizedOK = false
			}
			if !r.SmallerViolates {
				res.AllSmallerViolate = false
			}
			if r.SizedP99 > res.MaxSizedP99 {
				res.MaxSizedP99 = r.SizedP99
			}
			if i == 0 || r.SmallerP99 < res.MinSmallerP99 {
				res.MinSmallerP99 = r.SmallerP99
			}
		}
		if path := opts.path("planner_validation.csv"); path != "" {
			if err := plan.ValidationCSV(path, results); err != nil {
				return nil, "", err
			}
		}
		summary := fmt.Sprintf("%d cells x %d runs: sized OK %v (worst p99 %v), witnesses violate %v (best p99 %v)",
			res.Cells, res.Runs/res.Cells, res.AllSizedOK, res.MaxSizedP99.Round(time.Millisecond),
			res.AllSmallerViolate, res.MinSmallerP99.Round(time.Millisecond))
		return res, summary, nil
	}), nil
}

// FigPlanner validates the capacity planner against the simulator: each
// grid cell is sized by plan.Solve, then the sizing and its minimality
// witness are replayed attack-free through the full closed-loop
// simulation at every seed. It writes planner_validation.csv (one row
// per cell and seed, byte-identical at any worker count — and, via the
// dist driver, at any shard count).
func FigPlanner(opts Options) (*PlannerResult, error) { return runAs[*PlannerResult]("planner", opts) }
