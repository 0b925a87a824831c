package plan

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"memca/internal/core"
	"memca/internal/spec"
	"memca/internal/sweep"
	"memca/internal/trace"
)

// Cell is one point of the planner-vs-simulator validation grid: a
// closed-loop population the planner sizes for and the simulator then
// replays.
type Cell struct {
	// Clients and Think define the offered load.
	Clients int
	Think   time.Duration
}

// DefaultGrid returns the calibrated validation cells. Each sits on a
// provisioning cliff: the planner's sizing runs with comfortable SLO
// margin, while the next-smaller sizing (one bottleneck replica fewer)
// is overloaded enough that the closed-loop simulation blows past the
// target through queueing and TCP retransmissions — so the planner's
// feasibility boundary and the simulator's agree with wide margins on
// both sides at any seed.
func DefaultGrid() []Cell {
	return []Cell{
		{Clients: 1050, Think: 500 * time.Millisecond},
		{Clients: 2100, Think: time.Second},
		{Clients: 3300, Think: time.Second},
		{Clients: 4200, Think: 2 * time.Second},
	}
}

// ValidateOptions tune the validation sweep.
type ValidateOptions struct {
	// Cells is the load grid (empty: DefaultGrid).
	Cells []Cell
	// Seeds are the simulation seeds replayed per cell (empty: three
	// seeds derived from BaseSeed).
	Seeds []int64
	// BaseSeed feeds seed derivation when Seeds is empty.
	BaseSeed int64
	// Duration is the measured horizon per run (zero: 40 s).
	Duration time.Duration
	// Warmup is discarded before measurement (zero: 15 s).
	Warmup time.Duration
	// Workers bounds sweep concurrency (see sweep.Options); results are
	// identical for every value.
	Workers int
	// Progress, when non-nil, receives (done, total) after each run.
	Progress func(done, total int)
}

func (o ValidateOptions) cells() []Cell {
	if len(o.Cells) == 0 {
		return DefaultGrid()
	}
	return o.Cells
}

func (o ValidateOptions) seeds() []int64 {
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	seeds := make([]int64, 3)
	for i := range seeds {
		seeds[i] = sweep.DeriveSeed(o.BaseSeed, i)
	}
	return seeds
}

func (o ValidateOptions) duration() time.Duration {
	if o.Duration <= 0 {
		return 40 * time.Second
	}
	return o.Duration
}

func (o ValidateOptions) warmup() time.Duration {
	if o.Warmup <= 0 {
		return 15 * time.Second
	}
	return o.Warmup
}

// CellResult is one (cell, seed) validation verdict: the planner's
// sizing replayed through the simulator, next to its minimality witness.
type CellResult struct {
	// Clients/Think/Seed identify the run.
	Clients int           `json:"clients"`
	Think   time.Duration `json:"think"`
	Seed    int64         `json:"seed"`
	// Replicas and ThreadScale are the planner's sizing for the cell.
	Replicas    []int `json:"replicas"`
	ThreadScale int   `json:"thread_scale"`
	// SizedP99 and SizedDropRate are the simulator's verdict on the
	// sizing; SizedOK reports the SLO held.
	SizedP99      time.Duration `json:"sized_p99"`
	SizedDropRate float64       `json:"sized_drop_rate"`
	SizedOK       bool          `json:"sized_ok"`
	// SmallerReplicas is the minimality witness (one bottleneck replica
	// fewer); SmallerP99/SmallerDropRate its simulated outcome, and
	// SmallerViolates whether the simulator agrees it breaks the SLO.
	SmallerReplicas []int         `json:"smaller_replicas"`
	SmallerP99      time.Duration `json:"smaller_p99"`
	SmallerDropRate float64       `json:"smaller_drop_rate"`
	SmallerViolates bool          `json:"smaller_violates"`
}

// sized is one cell's planner verdict, computed once and shared across
// that cell's seeds.
type sized struct {
	res Result
	req Request
}

// Validation is a prepared validation sweep: every grid cell already
// sized by Solve, ready to replay (cell, seed) jobs one index at a time.
// Solve is deterministic and pure, so preparing a Validation in several
// worker processes yields identical plans — which is what lets the
// distributed fabric run validation jobs anywhere and still merge
// byte-identical results. Job index i maps to cell i/len(seeds) and seed
// i%len(seeds).
type Validation struct {
	slo   spec.SLO
	opts  ValidateOptions
	cells []Cell
	seeds []int64
	plans []sized
}

// NewValidation checks the SLO and sizes every grid cell once up front —
// sharing each verdict across the cell's seeds keeps the per-index jobs
// sim-only.
func NewValidation(slo spec.SLO, opts ValidateOptions) (*Validation, error) {
	if err := slo.Validate(); err != nil {
		return nil, err
	}
	v := &Validation{slo: slo, opts: opts, cells: opts.cells(), seeds: opts.seeds()}
	v.plans = make([]sized, len(v.cells))
	for i, cell := range v.cells {
		req := Request{
			System:  spec.RUBBoSSystem(),
			Traffic: spec.Traffic{Clients: cell.Clients, ThinkTime: cell.Think},
			SLO:     slo,
		}
		res, err := Solve(req)
		if err != nil {
			return nil, fmt.Errorf("plan: sizing cell %d (%d clients): %w", i, cell.Clients, err)
		}
		if res.NextSmaller == nil {
			return nil, fmt.Errorf("plan: cell %d (%d clients) sized to a single bottleneck replica; validation needs a minimality witness", i, cell.Clients)
		}
		v.plans[i] = sized{res: res, req: req}
	}
	return v, nil
}

// Jobs is the total (cell, seed) job count.
func (v *Validation) Jobs() int { return len(v.cells) * len(v.seeds) }

// Run replays job index i — one (cell, seed) pair, both the chosen sizing
// and its minimality witness — through the closed-loop simulator. It is a
// pure function of the index, safe to call from any worker in any order.
func (v *Validation) Run(i int) (CellResult, error) {
	if i < 0 || i >= v.Jobs() {
		return CellResult{}, fmt.Errorf("plan: validation job index %d out of range [0,%d)", i, v.Jobs())
	}
	ci, si := i/len(v.seeds), i%len(v.seeds)
	cell, p, seed := v.cells[ci], v.plans[ci], v.seeds[si]

	out := CellResult{
		Clients:         cell.Clients,
		Think:           cell.Think,
		Seed:            seed,
		Replicas:        p.res.Sizing.Replicas,
		ThreadScale:     p.res.Sizing.ThreadScale,
		SmallerReplicas: p.res.NextSmaller.Replicas,
	}
	p99, dropRate, err := simulate(p.res.Sizing.System, p.req.Traffic, seed, v.opts.duration(), v.opts.warmup())
	if err != nil {
		return CellResult{}, err
	}
	out.SizedP99, out.SizedDropRate = p99, dropRate
	out.SizedOK = p99 <= v.slo.TargetRT && dropRate <= v.slo.MaxDropRate

	p99, dropRate, err = simulate(p.res.NextSmaller.System, p.req.Traffic, seed, v.opts.duration(), v.opts.warmup())
	if err != nil {
		return CellResult{}, err
	}
	out.SmallerP99, out.SmallerDropRate = p99, dropRate
	out.SmallerViolates = p99 > v.slo.TargetRT || dropRate > v.slo.MaxDropRate
	return out, nil
}

// Validate sizes every grid cell with Solve, replays both the chosen
// sizing and its minimality witness through the full closed-loop
// simulator (attack-free) at every seed, and reports whether the
// simulator agrees with the planner's feasibility boundary. Runs fan out
// over the sweep engine; results are returned in grid order and are
// identical for every worker count.
func Validate(slo spec.SLO, opts ValidateOptions) ([]CellResult, error) {
	v, err := NewValidation(slo, opts)
	if err != nil {
		return nil, err
	}
	sweepOpts := sweep.Options{Workers: opts.Workers, Progress: opts.Progress}
	return sweep.Run(context.Background(), sweepOpts, v.Jobs(), func(_ context.Context, i int) (CellResult, error) {
		return v.Run(i)
	})
}

// simulate replays one sizing through the closed-loop simulator
// attack-free and returns the client p99 and the drop fraction.
func simulate(sys spec.System, traffic spec.Traffic, seed int64, duration, warmup time.Duration) (time.Duration, float64, error) {
	cfg := core.DefaultConfig()
	cfg.Attack = nil
	cfg.Seed = seed
	cfg.Duration = duration
	cfg.Warmup = warmup
	cfg, err := cfg.FromSpec(sys, traffic.AtPeak())
	if err != nil {
		return 0, 0, err
	}
	x, err := core.NewExperiment(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		return 0, 0, err
	}
	dropRate := 0.0
	if rep.Requests > 0 {
		dropRate = float64(rep.Drops) / float64(rep.Requests)
	}
	return rep.Client.P99, dropRate, nil
}

// ValidationCSV writes the validation results as a CSV artifact
// (byte-identical across worker counts; see internal/sweep).
func ValidationCSV(path string, results []CellResult) error {
	header := []string{
		"clients", "think_s", "seed", "replicas", "thread_scale",
		"sized_p99_ms", "sized_drop_rate", "sized_ok",
		"smaller_replicas", "smaller_p99_ms", "smaller_drop_rate", "smaller_violates",
	}
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = []string{
			strconv.Itoa(r.Clients),
			strconv.FormatFloat(r.Think.Seconds(), 'g', -1, 64),
			strconv.FormatInt(r.Seed, 10),
			replicasLabel(r.Replicas),
			strconv.Itoa(r.ThreadScale),
			strconv.FormatFloat(float64(r.SizedP99)/float64(time.Millisecond), 'f', 3, 64),
			strconv.FormatFloat(r.SizedDropRate, 'f', 6, 64),
			strconv.FormatBool(r.SizedOK),
			replicasLabel(r.SmallerReplicas),
			strconv.FormatFloat(float64(r.SmallerP99)/float64(time.Millisecond), 'f', 3, 64),
			strconv.FormatFloat(r.SmallerDropRate, 'f', 6, 64),
			strconv.FormatBool(r.SmallerViolates),
		}
	}
	return trace.WriteCSV(path, header, rows)
}

// replicasLabel renders a replica vector as "2-2-3".
func replicasLabel(replicas []int) string {
	s := ""
	for i, r := range replicas {
		if i > 0 {
			s += "-"
		}
		s += strconv.Itoa(r)
	}
	return s
}
