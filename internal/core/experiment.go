package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"memca/internal/attack"
	"memca/internal/cloud"
	"memca/internal/control"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/spec"
	"memca/internal/stats"
	"memca/internal/telemetry"
	"memca/internal/workload"
)

// Experiment is one fully wired MemCA run. Build with NewExperiment, run
// once with Run, inspect the Report and the exposed components, then
// Close it.
type Experiment struct {
	// cfg.Arena is always set: the caller's arena, or one NewExperiment
	// took from stats.GetArena (pooled), which Close gives back.
	cfg    Config
	pooled bool
	// tiers is the simulated topology: cfg.Tiers, or the RUBBoS
	// deployment of spec.RUBBoSSystem when that is nil.
	tiers   []queueing.TierConfig
	engine  *sim.Engine
	network *queueing.Network
	gen     *workload.Generator
	// victim is the MySQL VM's host: the one host a run models, which
	// the adversary VMs share.
	victim *memmodel.Host

	// Attack-side components (nil without an AttackSpec).
	injector *attack.MemoryInjector
	burster  *attack.Burster
	prober   *control.Prober
	loop     *control.Loop
	decideFn func() // decide, bound once so a decision allocates no closure
	scaling  *cloud.ScalingGroup

	llcVictim    *monitor.PeriodicSampler
	llcAdversary *monitor.PeriodicSampler

	tracer *telemetry.Tracer

	ran bool
}

// NewExperiment validates the configuration and wires every component.
// Without cfg.Arena it takes a warm arena from stats.GetArena; Close
// returns it (on an error the arena is left to the garbage collector).
// Every client of the experiment retransmits under the RFC 6298 policy
// (queueing.DefaultRetransmit).
func NewExperiment(cfg Config) (*Experiment, error) {
	return newExperiment(cfg, queueing.DefaultRetransmit())
}

// newExperiment is NewExperiment with the network's retransmission policy.
func newExperiment(cfg Config, retransmit queueing.RetransmitPolicy) (*Experiment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := &Experiment{cfg: cfg}
	if cfg.Arena == nil {
		cfg.Arena = stats.GetArena()
		x.cfg.Arena, x.pooled = cfg.Arena, true
	}
	x.engine = cfg.Arena.Engine(cfg.Seed)

	// The MySQL VM's host: the adversaries co-locate with it (wireAttack).
	// The web and app tiers run on hosts of their own that nothing
	// attacks, so they are not modelled.
	hostCfg, err := cfg.Env.HostConfig()
	if err != nil {
		return nil, err
	}
	if x.victim, err = memmodel.NewHost(hostCfg); err != nil {
		return nil, err
	}
	if _, err := x.victim.AddVM(memmodel.VM{ID: "mysql"}); err != nil {
		return nil, fmt.Errorf("core: placing mysql: %w", err)
	}

	// n-tier system and client population.
	x.tiers = cfg.Tiers
	if x.tiers == nil {
		x.tiers = SpecTiers(spec.RUBBoSSystem())
	}
	// The observer interface fields are only set when tracing is enabled:
	// assigning a nil *Tracer would produce a non-nil interface and charge
	// every lifecycle point a virtual call into a nil receiver.
	netCfg := queueing.Config{
		Mode:       queueing.ModeNTierRPC,
		Tiers:      x.tiers,
		Classes:    workload.RUBBoSClasses(),
		Retransmit: retransmit,
		Arena:      cfg.Arena,
	}
	genCfg := workload.GeneratorConfig{
		Clients:   cfg.Clients,
		ThinkTime: sim.NewExponential(cfg.ThinkTime),
		Profile:   workload.RUBBoSProfile(),
		RampUp:    10 * time.Second,
		Arena:     cfg.Arena,
	}
	if cfg.Trace != nil {
		x.tracer, err = telemetry.New(x.engine, telemetry.Config{
			Spec:      *cfg.Trace,
			Tiers:     len(x.tiers),
			TierNames: tierLabels(x.tiers),
			Seed:      cfg.Seed,
			Horizon:   cfg.Duration,
			Arena:     cfg.Arena,
		})
		if err != nil {
			return nil, err
		}
		netCfg.Observer = x.tracer
	}
	x.network, err = queueing.New(x.engine, netCfg)
	if err != nil {
		return nil, err
	}
	// The victim's CPU curve is the one window every report samples (and
	// the figure drivers read after Run); the other tier integrators keep
	// no transition history unless a caller asks for it.
	busy, err := x.network.TierBusy(x.victimTier())
	if err != nil {
		return nil, err
	}
	busy.KeepHistory()
	x.gen, err = workload.NewGenerator(x.network, genCfg)
	if err != nil {
		return nil, err
	}
	x.gen.RecordSeries(cfg.RecordSeries)

	if cfg.Defense != nil {
		x.victim.SetSplitLockProtection(cfg.Defense.SplitLockProtection)
		if cfg.Defense.VictimReservationMBps > 0 {
			if err := x.victim.ReserveBandwidth("mysql", cfg.Defense.VictimReservationMBps); err != nil {
				return nil, fmt.Errorf("core: victim reservation: %w", err)
			}
		}
	}
	if cfg.Attack != nil {
		if err := x.wireAttack(*cfg.Attack); err != nil {
			return nil, err
		}
	}
	if cfg.Feedback != nil {
		if err := x.wireFeedback(*cfg.Feedback); err != nil {
			return nil, err
		}
	}
	if cfg.Scaling != nil {
		x.scaling, err = cloud.NewScalingGroup(cloud.ScalingGroupConfig{
			Engine:         x.engine,
			Network:        x.network,
			Tier:           x.victimTier(),
			Trigger:        cfg.Scaling.Trigger,
			MaxInstances:   cfg.Scaling.MaxInstances,
			ProvisionDelay: cfg.Scaling.ProvisionDelay,
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.LLCSamplePeriod > 0 {
		if err := x.wireLLCProfilers(); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// victimTier is the bottleneck tier index (the back-most tier).
func (x *Experiment) victimTier() int { return x.network.NumTiers() - 1 }

// tierLabels extracts the tier names of a topology, falling back to the
// canonical labels for unnamed tiers.
func tierLabels(tiers []queueing.TierConfig) []string {
	names := make([]string, len(tiers))
	for i, t := range tiers {
		switch {
		case t.Name != "":
			names[i] = t.Name
		case i < len(tierNames):
			names[i] = tierNames[i]
		default:
			names[i] = fmt.Sprintf("tier%d", i)
		}
	}
	return names
}

func (x *Experiment) wireAttack(spec AttackSpec) error {
	adversaries := make([]string, 0, spec.AdversaryVMs)
	for i := 0; i < spec.AdversaryVMs; i++ {
		// strconv, not fmt: fmt's printer pool refills after every GC,
		// which would make the experiment's allocation count depend on
		// GC timing.
		id := "adversary" + strconv.Itoa(i+1)
		if _, err := x.victim.AddVM(memmodel.VM{ID: id}); err != nil {
			return fmt.Errorf("core: co-locating %s: %w", id, err)
		}
		adversaries = append(adversaries, id)
	}
	injector, err := attack.NewMemoryInjector(attack.MemoryInjectorConfig{
		Host:         x.victim,
		Kind:         spec.Kind,
		AdversaryVMs: adversaries,
		VictimVM:     "mysql",
		Profile:      memmodel.MySQLProfile(),
		Network:      x.network,
		VictimTier:   x.victimTier(),
	})
	if err != nil {
		return err
	}
	x.injector = injector
	x.burster, err = attack.NewBurster(x.engine, x.cfg.Arena, injector, spec.Params)
	return err
}

func (x *Experiment) wireFeedback(cfg control.Config) error {
	// The probe behaves like a real HTTP client: a dropped connection is
	// retransmitted after the TCP RTO, and the reported latency spans
	// the whole exchange — so the commander sees the damage it causes.
	// Each probe's done callback rides on Request.UserData. A probe the
	// client gives up on reports the time burned until its final timeout.
	// The client is never stopped: probes keep retrying through the drain.
	var probe *queueing.Client
	probe = queueing.NewClient(x.network, func(req *queueing.Request) {
		rt := req.ClientRT()
		if req.Dropped {
			rt = x.engine.Now() + probe.Timeout(req) - req.FirstAttempt
		}
		req.UserData.(func(time.Duration))(rt)
	})
	submit := func(done func(rt time.Duration)) { probe.Submit(probeClass, done) }
	loop, err := control.NewLoop(cfg, x.burster.Params())
	if err != nil {
		return err
	}
	x.loop, x.decideFn = loop, x.decide
	x.prober, err = control.NewProber(x.engine, loop, submit)
	return err
}

func (x *Experiment) wireLLCProfilers() error {
	mem := x.victim
	gauge := func(vmID string) func() float64 {
		return func() float64 {
			rate, err := mem.LLCMissRate(vmID)
			if err != nil {
				panic(err) // VMs were placed at construction
			}
			return rate
		}
	}
	var err error
	x.llcVictim, err = monitor.NewPeriodicSampler(x.engine, x.cfg.Arena, "llc-mysql", x.cfg.LLCSamplePeriod, gauge("mysql"))
	if err != nil {
		return err
	}
	if x.cfg.Attack != nil && x.cfg.Attack.AdversaryVMs > 0 {
		x.llcAdversary, err = monitor.NewPeriodicSampler(x.engine, x.cfg.Arena, "llc-adversary", x.cfg.LLCSamplePeriod, gauge("adversary1"))
		if err != nil {
			return err
		}
	}
	return nil
}

// cancelCheckEvery is how many fired events pass between context checks in
// RunContext. Checking is cheap (an atomic load inside ctx.Err), but doing
// it between every pair of events would still dominate the hot loop; every
// few thousand events keeps cancellation latency far below a simulated
// second at experiment event rates.
const cancelCheckEvery = 4096

// Run executes warm-up plus the measured phase and returns the report. An
// experiment runs once; further calls return an error. It is equivalent to
// RunContext with a background context.
func (x *Experiment) Run() (*Report, error) { return x.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx every few thousand events and on cancellation returns ctx's error
// with a nil Report — a canceled run never surfaces partial results as
// success, matching the sweep engine's semantics. Cancellation does not
// perturb determinism: the event sequence up to the stop point is exactly
// the uncancelled run's prefix.
func (x *Experiment) RunContext(ctx context.Context) (*Report, error) {
	x.live()
	if x.ran {
		return nil, fmt.Errorf("core: experiment already ran")
	}
	x.ran = true
	if ctx == nil {
		ctx = context.Background()
	}
	check := func() error { return ctx.Err() }
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	x.gen.Start()
	if err := x.engine.RunChecked(x.cfg.Warmup, cancelCheckEvery, check); err != nil {
		return nil, err
	}
	x.gen.ResetMetrics()
	x.network.ResetTierSamples()
	measureStart := x.engine.Now()
	if x.tracer != nil {
		x.tracer.Reset(measureStart)
	}

	if x.burster != nil {
		x.burster.Start()
	}
	if x.prober != nil {
		x.prober.Start()
	}
	if x.scaling != nil {
		x.scaling.Start()
	}
	if x.llcVictim != nil {
		x.llcVictim.Start()
	}
	if x.llcAdversary != nil {
		x.llcAdversary.Start()
	}
	if x.loop != nil {
		x.engine.Schedule(x.cfg.Feedback.DecisionEvery, x.decideFn)
	}

	end := measureStart + x.cfg.Duration
	if err := x.engine.RunChecked(end, cancelCheckEvery, check); err != nil {
		return nil, err
	}

	// Quiesce: stop sources and attack, then drain in-flight work.
	x.gen.Stop()
	if x.burster != nil {
		x.burster.Stop()
	}
	if x.prober != nil {
		x.prober.Stop()
	}
	if x.scaling != nil {
		x.scaling.Stop()
	}
	if x.llcVictim != nil {
		x.llcVictim.Stop()
	}
	if x.llcAdversary != nil {
		x.llcAdversary.Stop()
	}
	if err := x.engine.RunAllChecked(50_000_000, cancelCheckEvery, check); err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: drain phase: %w", err)
	}
	return x.buildReport(measureStart, end)
}

// decide is one decision epoch of the feedback loop: it retunes the
// attack and schedules the next epoch until the measured phase ends.
func (x *Experiment) decide() {
	if x.engine.Now() >= x.cfg.Warmup+x.cfg.Duration {
		return
	}
	// The FE's conservative millibottleneck estimate is the attack
	// program's execution time, i.e. the burst length.
	next := x.loop.Decide(x.burster.Params().BurstLength)
	if err := x.burster.SetParams(next); err != nil {
		panic(err) // commander clamps to valid bounds
	}
	x.engine.Schedule(x.cfg.Feedback.DecisionEvery, x.decideFn)
}

// Close ends the experiment. Its stats objects and engine live in the
// run's arena: Close resets an arena NewExperiment took from the pool and
// returns it, and leaves a caller-supplied cfg.Arena alone. Either way it
// drops every component, so a later accessor call panics instead of
// reading storage a following run may have checked out. A Report from Run
// holds only heap copies and stays valid. Close is idempotent.
func (x *Experiment) Close() {
	if x.pooled {
		stats.PutArena(x.cfg.Arena)
	}
	*x = Experiment{}
}

// live panics once the experiment is closed (Close drops the engine).
func (x *Experiment) live() {
	if x.engine == nil {
		panic("core: Experiment used after Close")
	}
}

// Engine exposes the simulation engine (for tests and figure scripts).
func (x *Experiment) Engine() *sim.Engine { x.live(); return x.engine }

// Network exposes the n-tier system. Only the victim tier's busy
// integrator keeps transition history by default; to read windows of any
// other tier integrator, call its KeepHistory before Run.
func (x *Experiment) Network() *queueing.Network { x.live(); return x.network }

// VictimCPU is the bottleneck tier's CPU utilization, the MySQL VM's
// signal every monitor samples: a window [from, to) is an offset from the
// end of warm-up, and reads the tier's busy stations over its configured
// servers (Network.TierUtilization). Read it after Run and before Close.
func (x *Experiment) VictimCPU() monitor.UtilizationSource {
	x.live()
	n, tier, start := x.network, x.victimTier(), x.cfg.Warmup
	return func(from, to time.Duration) float64 {
		u, err := n.TierUtilization(tier, start+from, start+to)
		if err != nil {
			panic(err) // the victim tier is in range by construction
		}
		return u
	}
}

// Generator exposes the client population.
func (x *Experiment) Generator() *workload.Generator { x.live(); return x.gen }

// Burster exposes the attack scheduler, or nil without an attack.
func (x *Experiment) Burster() *attack.Burster { x.live(); return x.burster }

// Feedback exposes the feedback loop (probe window and commander), or
// nil without feedback.
func (x *Experiment) Feedback() *control.Loop { x.live(); return x.loop }

// Tracer exposes the per-request tracer, or nil when Config.Trace is unset.
func (x *Experiment) Tracer() *telemetry.Tracer { x.live(); return x.tracer }

// LLCVictimSeries returns the sampled MySQL-VM LLC miss series, or nil.
func (x *Experiment) LLCVictimSeries() *monitor.PeriodicSampler { x.live(); return x.llcVictim }

// LLCAdversarySeries returns the adversary-VM LLC miss series, or nil.
func (x *Experiment) LLCAdversarySeries() *monitor.PeriodicSampler { x.live(); return x.llcAdversary }
