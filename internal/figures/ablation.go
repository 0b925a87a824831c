package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/attack"
	"memca/internal/core"
	"memca/internal/memmodel"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/spec"
	"memca/internal/stats"
)

// AblationPoint is one configuration's outcome in a sweep.
type AblationPoint struct {
	// Label identifies the configuration (e.g. "L=500ms").
	Label string
	// ClientP95 and ClientP99 are the damage metrics.
	ClientP95 time.Duration
	ClientP99 time.Duration
	// CoarseUtil is the 1-minute mean CPU of the victim (stealth).
	CoarseUtil float64
	// Drops counts front-tier rejections.
	Drops uint64
}

// AblationResult aggregates one sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// runAttackVariant runs the default experiment with the given mutation
// applied to its configuration and summarizes it as an AblationPoint.
// The arena (may be nil) backs the run's stats; the point holds no
// arena-backed memory.
func runAttackVariant(opts Options, a *stats.Arena, label string, mutate func(*core.Config)) (AblationPoint, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.Duration = opts.duration(2 * time.Minute)
	cfg.Arena = a
	if mutate != nil {
		mutate(&cfg)
	}
	x, err := core.NewExperiment(cfg)
	if err != nil {
		return AblationPoint{}, fmt.Errorf("figures: ablation %s: %w", label, err)
	}
	rep, err := x.Run()
	if err != nil {
		return AblationPoint{}, fmt.Errorf("figures: ablation %s run: %w", label, err)
	}
	p := AblationPoint{
		Label:     label,
		ClientP95: rep.Client.P95,
		ClientP99: rep.Client.P99,
		Drops:     rep.Drops,
	}
	// Use the coarsest available utilization view (the 1-minute view is
	// skipped when quick-mode horizons are shorter than a minute).
	coarsest := time.Duration(0)
	for _, v := range rep.VictimUtilization {
		if v.Granularity > coarsest {
			coarsest = v.Granularity
			p.CoarseUtil = v.Mean
		}
	}
	return p, nil
}

// attackVariant is one cell of a closed-loop ablation sweep.
type attackVariant struct {
	label  string
	mutate func(*core.Config)
}

// newVariantRun builds the DistRun for a closed-loop ablation sweep: one
// job per variant, each an AblationPoint record; the finalizer assembles
// the result in variant order and writes the sweep's CSV.
func newVariantRun(opts Options, name, csv string, variants []attackVariant) *DistRun {
	return newRun(len(variants), func(a *stats.Arena, i int) (AblationPoint, error) {
		return runAttackVariant(opts, a, variants[i].label, variants[i].mutate)
	}, newAblationFinalize(opts, name, csv))
}

// newAblationFinalize assembles AblationPoint records in variant order,
// writes the sweep CSV, and summarizes one line per point.
func newAblationFinalize(opts Options, name, csv string) func([]AblationPoint) (any, string, error) {
	return func(points []AblationPoint) (any, string, error) {
		lines := make([]string, 0, len(points))
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			lines = append(lines, fmt.Sprintf("%-16s p95=%-9v p99=%-9v coarse-util=%4.0f%%  drops=%d",
				p.Label, p.ClientP95.Round(time.Millisecond), p.ClientP99.Round(time.Millisecond),
				p.CoarseUtil*100, p.Drops))
			rows = append(rows, []string{
				p.Label,
				strconv.FormatFloat(p.ClientP95.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.ClientP99.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.CoarseUtil, 'f', 4, 64),
				strconv.FormatUint(p.Drops, 10),
			})
		}
		if err := opts.writeCSV(csv, []string{"config", "client_p95_ms", "client_p99_ms", "coarse_util", "drops"}, rows); err != nil {
			return nil, "", err
		}
		return &AblationResult{Name: name, Points: points}, strings.Join(lines, "\n"), nil
	}
}

// The closed-loop ablation sweeps, as (name, csv, variant builder)
// rows; each registers a dist driver named "ablation-<name>" and backs
// the corresponding Ablation* function.
var ablationSweeps = []struct {
	name     string
	csv      string
	variants func() []attackVariant
}{
	{"burst-length", "ablation_burst_length.csv", burstLengthVariants},
	{"interval", "ablation_interval.csv", intervalVariants},
	{"adversaries", "ablation_adversaries.csv", adversariesVariants},
	{"load", "ablation_load.csv", loadVariants},
	{"service-distribution", "ablation_service_distribution.csv", serviceDistributionVariants},
}

func init() {
	for _, ab := range ablationSweeps {
		ab := ab
		registerDist(DistDriver{
			Name: "ablation-" + ab.name,
			New: func(o Options) (*DistRun, error) {
				return newVariantRun(o, ab.name, ab.csv, ab.variants()), nil
			},
		})
	}
	registerDist(DistDriver{Name: "ablation-mechanisms", New: newMechanismsRun})
}

// burstLengthVariants sweeps the burst length L at fixed I = 2 s: the
// damage-vs-stealth trade-off of Equations (7) and (10). Short bursts
// never complete the build-up stage (no damage); long bursts raise the
// coarse utilization toward detectability.
func burstLengthVariants() []attackVariant {
	var variants []attackVariant
	for _, l := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 350 * time.Millisecond, 500 * time.Millisecond, 800 * time.Millisecond} {
		l := l
		variants = append(variants, attackVariant{fmt.Sprintf("L=%v", l), func(c *core.Config) {
			c.Attack.Params.BurstLength = l
		}})
	}
	return variants
}

// intervalVariants sweeps the burst interval I at fixed L = 500 ms: the
// frequency axis of Equation (8), ρ = P_D / I.
func intervalVariants() []attackVariant {
	var variants []attackVariant
	for _, iv := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		iv := iv
		variants = append(variants, attackVariant{fmt.Sprintf("I=%v", iv), func(c *core.Config) {
			c.Attack.Params.Interval = iv
		}})
	}
	return variants
}

// mechanismVariant is one cell of the mechanism-removal ablation.
type mechanismVariant struct {
	label      string
	mode       queueing.Mode
	infinite   bool
	retransmit queueing.RetransmitPolicy
}

// mechanismVariants are the mechanism-removal ablation's cells.
var mechanismVariants = []mechanismVariant{
	{"full", queueing.ModeNTierRPC, false, queueing.DefaultRetransmit()},
	{"no-retransmit", queueing.ModeNTierRPC, false, queueing.RetransmitPolicy{}},
	{"infinite-queues", queueing.ModeNTierRPC, true, queueing.RetransmitPolicy{}},
	{"no-slot-holding", queueing.ModeTandem, true, queueing.RetransmitPolicy{}},
}

// newMechanismsRun prepares the mechanism-removal ablation, which uses
// the model-level network (open-loop arrivals) so the mechanisms can be
// toggled independently of the closed-loop client population.
func newMechanismsRun(opts Options) (*DistRun, error) {
	return newRun(len(mechanismVariants), func(a *stats.Arena, i int) (AblationPoint, error) {
		return mechanismPoint(a, opts, mechanismVariants[i])
	}, newAblationFinalize(opts, "mechanisms", "ablation_mechanisms.csv")), nil
}

// mechanismPoint runs one mechanism-removal cell on a.
func mechanismPoint(a *stats.Arena, opts Options, v mechanismVariant) (AblationPoint, error) {
	d, params := fig6Attack()
	limits := [3]int{queueing.Infinite, queueing.Infinite, queueing.Infinite}
	if !v.infinite {
		limits = rubbosModelLimits()
	}
	e := a.Engine(opts.Seed)
	n, sources, err := modelNetwork(e, a, v.mode, limits, v.retransmit)
	if err != nil {
		return AblationPoint{}, fmt.Errorf("figures: ablation %s: %w", v.label, err)
	}
	point, err := runModelAttack(e, a, n, sources, d, params, opts.duration(2*time.Minute))
	if err != nil {
		return AblationPoint{}, fmt.Errorf("figures: ablation %s: %w", v.label, err)
	}
	point.Label = v.label
	return point, nil
}

// AblationMechanisms removes the three amplification mechanisms one at a
// time, quantifying each one's contribution to the client tail:
//
//   - "full": the complete model (slot-holding, finite queues, TCP
//     retransmission);
//   - "no-retransmit": drops are final — the RTO floor disappears from
//     the client tail;
//   - "infinite-queues": nothing is ever dropped — only queueing delay
//     remains;
//   - "no-slot-holding": tandem coupling — overflow cannot propagate.
//
//memca:keep perfbench (a separate module) times this driver on fig-quick
func AblationMechanisms(opts Options) (*AblationResult, error) {
	return runAs[*AblationResult]("ablation-mechanisms", opts)
}

// adversariesVariants sweeps the co-located adversary VM count for the
// bus-saturation attack (the lock attack needs only one, which is the
// paper's point; saturation needs many to bite).
func adversariesVariants() []attackVariant {
	var variants []attackVariant
	for _, k := range []int{1, 2, 4} {
		k := k
		variants = append(variants, attackVariant{fmt.Sprintf("lock-x%d", k), func(c *core.Config) {
			c.Attack.AdversaryVMs = k
		}})
	}
	for _, k := range []int{1, 4} {
		k := k
		variants = append(variants, attackVariant{fmt.Sprintf("saturation-x%d", k), func(c *core.Config) {
			c.Attack.Kind = memmodel.AttackBusSaturation
			c.Attack.AdversaryVMs = k
		}})
	}
	return variants
}

// loadVariants sweeps the legitimate client population: condition 2
// (λ_n > C_n,ON) needs enough background load for the degraded bottleneck
// to overflow, so a lightly loaded system resists the same attack.
func loadVariants() []attackVariant {
	var variants []attackVariant
	for _, clients := range []int{875, 1750, 3500, 5000} {
		clients := clients
		variants = append(variants, attackVariant{fmt.Sprintf("clients=%d", clients), func(c *core.Config) {
			c.Clients = clients
		}})
	}
	return variants
}

// serviceDistributionVariants swaps the per-tier service-time
// distributions (the paper assumes exponential capacities): tail
// amplification should be robust to the distributional assumption
// because it is driven by capacity starvation and drops, not by
// service-time variance.
func serviceDistributionVariants() []attackVariant {
	sys := spec.RUBBoSSystem()
	variants := []struct {
		label string
		make  func(mean time.Duration) sim.Dist
	}{
		{"exponential", func(m time.Duration) sim.Dist { return sim.NewExponential(m) }},
		{"erlang-4", func(m time.Duration) sim.Dist { return sim.NewErlang(4, m) }},
		{"lognormal-1.2", func(m time.Duration) sim.Dist { return sim.NewLogNormalFromMean(m, 1.2) }},
		{"deterministic", func(m time.Duration) sim.Dist { return sim.NewDeterministic(m) }},
	}
	cells := make([]attackVariant, 0, len(variants))
	for _, v := range variants {
		v := v
		cells = append(cells, attackVariant{v.label, func(c *core.Config) {
			tiers := core.SpecTiers(sys)
			for i, t := range sys.Tiers {
				tiers[i].Service = v.make(t.Service)
			}
			c.Tiers = tiers
		}})
	}
	return cells
}

// rubbosModelLimits returns the RUBBoS deployment's pooled queue limits.
func rubbosModelLimits() [3]int {
	tiers := spec.RUBBoSSystem().Tiers
	return [3]int{tiers[0].PooledThreads(), tiers[1].PooledThreads(), tiers[2].PooledThreads()}
}

// runModelAttack drives an open-loop model network under ON-OFF bursts
// and summarizes client damage, merging client RTs into a sample of a.
func runModelAttack(e *sim.Engine, a *stats.Arena, n *queueing.Network, sources []*queueing.Source, d float64, params attack.Params, horizon time.Duration) (AblationPoint, error) {
	busy, err := n.TierBusy(2)
	if err != nil {
		return AblationPoint{}, err
	}
	busy.KeepHistory()
	inj, err := attack.NewDirectInjector(n, 2, d)
	if err != nil {
		return AblationPoint{}, err
	}
	b, err := attack.NewBurster(e, a, inj, params)
	if err != nil {
		return AblationPoint{}, err
	}
	for _, s := range sources {
		s.Start()
	}
	e.Run(5 * time.Second)
	b.Start()
	e.Run(5*time.Second + horizon)
	b.Stop()
	for _, s := range sources {
		s.Stop()
	}
	if err := e.RunAll(200_000_000); err != nil {
		return AblationPoint{}, err
	}
	client := a.Sample(4096)
	for _, s := range sources {
		client.Merge(s.ClientRT())
	}
	coarse, err := n.TierUtilization(2, 5*time.Second, 5*time.Second+horizon)
	if err != nil {
		return AblationPoint{}, err
	}
	return AblationPoint{
		ClientP95:  client.Percentile(95),
		ClientP99:  client.Percentile(99),
		CoarseUtil: coarse,
		Drops:      n.Drops(),
	}, nil
}
