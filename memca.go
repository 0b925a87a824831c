// Package memca is a simulation-backed reproduction of "Tail Amplification
// in n-Tier Systems: A Study of Transient Cross-Resource Contention
// Attacks" (ICDCS 2019): the MemCA attack, the n-tier queueing substrate
// it targets, the memory-contention model that couples a co-located
// adversary's memory traffic to the victim's CPU capacity, the analytical
// model of Equations (2)-(10), the Kalman-filtered attack controller, and
// the monitoring/elasticity stack the attack evades.
//
// The public surface re-exports the orchestration layer: build a Config,
// create an Experiment, Run it, inspect the Report, and Close the
// Experiment to give its stats arena back (the Report stays valid).
//
//	cfg := memca.DefaultConfig()
//	x, err := memca.NewExperiment(cfg)
//	if err != nil { ... }
//	defer x.Close()
//	report, err := x.Run()
//	fmt.Println(report.Render())
//
// Deeper layers (the queueing network, the host memory model, the burst
// scheduler) are exposed through the Experiment accessors; the analytical
// model and bandwidth profiler are re-exported below for direct use.
package memca

import (
	"context"
	"time"

	"memca/internal/analytical"
	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/core"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/plan"
	"memca/internal/spec"
	"memca/internal/sweep"
	"memca/internal/telemetry"
)

// Re-exported orchestration types.
type (
	// Config assembles one experiment run.
	Config = core.Config
	// Env selects the modelled cloud environment.
	Env = core.Env
	// AttackSpec configures the adversary.
	AttackSpec = core.AttackSpec
	// FeedbackSpec enables the MemCA-BE control loop.
	FeedbackSpec = control.Config
	// ScalingSpec enables elastic scaling during the run.
	ScalingSpec = core.ScalingSpec
	// DefenseSpec enables host-side countermeasures on the victim host.
	DefenseSpec = core.DefenseSpec
	// Experiment is one wired run.
	Experiment = core.Experiment
	// Report is the distilled outcome.
	Report = core.Report
	// TierReport summarizes one tier.
	TierReport = core.TierReport
	// Replication is one repetition of a replicated experiment.
	Replication = core.Replication
	// ReplicateOptions control parallel replication.
	ReplicateOptions = core.ReplicateOptions
)

// Re-exported per-request telemetry types (see internal/telemetry).
type (
	// TraceSpec enables per-request causal tracing via Config.Trace.
	TraceSpec = telemetry.Spec
	// Tracer reconstructs per-request traces; reach it through
	// Experiment.Tracer.
	Tracer = telemetry.Tracer
	// TraceAttribution decomposes one traced request's response time.
	TraceAttribution = telemetry.Attribution
	// TraceBreakdown summarizes attribution records by component.
	TraceBreakdown = telemetry.Breakdown
)

// DefaultTraceSpec returns tracer settings sized for the paper's
// experiments (see telemetry.DefaultSpec).
func DefaultTraceSpec() TraceSpec { return telemetry.DefaultSpec() }

// Re-exported attack and control types.
type (
	// AttackParams are the (R, L, I) knobs of Equation (1).
	AttackParams = attack.Params
	// Goal is the damage/stealth objective of the controller.
	Goal = control.Goal
	// Bounds clamp the controller's search space.
	Bounds = control.Bounds
)

// Re-exported analytical-model types (Equations 2-10).
type (
	// Model is the n-tier analytical model.
	Model = analytical.Model
	// ModelTier holds one tier's Table I parameters.
	ModelTier = analytical.Tier
	// ModelAttack is an analytical attack parameterization.
	ModelAttack = analytical.Attack
	// Prediction is the closed-form attack outcome.
	Prediction = analytical.Prediction
)

// Re-exported memory-model types.
type (
	// HostConfig describes a physical host's memory subsystem.
	HostConfig = memmodel.HostConfig
	// VictimProfile characterizes bandwidth sensitivity.
	VictimProfile = memmodel.VictimProfile
	// BandwidthPoint is one Figure 3 measurement.
	BandwidthPoint = memmodel.BandwidthPoint
	// ProfileSpec describes one bandwidth-profiling experiment.
	ProfileSpec = memmodel.ProfileSpec
)

// PlanGoal is the analytical planning objective of PlanAttack: the minimum
// acceptable damage and the stealth ceiling on millibottleneck duration.
// (The runtime controller's objective is the separate Goal type.)
type PlanGoal = analytical.Goal

// Re-exported deployment-spec vocabulary (see internal/spec): one
// description of an n-tier system, its traffic forecast, and its SLO,
// shared by the capacity planner, the simulator (Config.FromSpec, and the
// default topology when Config.Tiers is nil), and the live victim chain
// (victimd.StartSystem).
type (
	// SystemSpec describes an n-tier deployment as per-replica templates.
	SystemSpec = spec.System
	// TierSpec is one tier's template (threads, servers, service time).
	TierSpec = spec.TierSpec
	// TrafficSpec is a closed-loop population plus a forecast shape.
	TrafficSpec = spec.Traffic
	// SLOSpec is the objective a sizing must hold.
	SLOSpec = spec.SLO
)

// Re-exported capacity-planner types (see internal/plan).
type (
	// PlanRequest is one sizing problem for PlanSizing.
	PlanRequest = plan.Request
	// PlanResult is the planner's verdict: the cheapest feasible sizing,
	// its assessment, sustainable-rate ceilings, and the minimality
	// witness.
	PlanResult = plan.Result
	// PlanOptions cap the sizing search.
	PlanOptions = plan.Options
	// PlanAdversary bounds the attacker the planner sizes against.
	PlanAdversary = plan.Adversary
	// PlanAssessment is the oracle's verdict on one sizing.
	PlanAssessment = plan.Assessment
	// PlanSizingChoice is one point of the sizing search space.
	PlanSizingChoice = plan.Sizing
)

// ErrInfeasible marks analytical problems with no feasible answer: an
// attack goal no parameters meet, or a model whose offered load already
// exceeds a tier's attack-free capacity (check with errors.Is).
var ErrInfeasible = analytical.ErrInfeasible

// ErrNoFeasibleSizing marks planning problems no sizing within the
// search caps solves (check with errors.Is).
var ErrNoFeasibleSizing = plan.ErrNoFeasibleSizing

// RUBBoSSpec returns the per-replica tier templates of the paper's
// RUBBoS deployment, which the simulator runs when Config.Tiers is nil.
func RUBBoSSpec() SystemSpec { return spec.RUBBoSSystem() }

// RUBBoSTrafficSpec returns the paper's evaluation population (3500
// clients, 7 s think) as a flat-forecast traffic spec.
func RUBBoSTrafficSpec() TrafficSpec { return spec.RUBBoSTraffic() }

// DefaultSLO returns the default provisioning objective: p99 under
// 500 ms with at most 1% of requests dropped.
func DefaultSLO() SLOSpec { return spec.DefaultSLO() }

// DefaultPlanAdversary returns the stealthy attacker the planner sizes
// against by default.
func DefaultPlanAdversary() PlanAdversary { return plan.DefaultAdversary() }

// PlanSizing inverts the analytical model into a capacity plan: the
// cheapest replica counts and thread-pool scales that hold the SLO both
// attack-free and under the worst-case stealthy MemCA burst train.
func PlanSizing(req PlanRequest) (PlanResult, error) { return plan.Solve(req) }

// Environments.
const (
	// EnvPrivateCloud models the paper's OpenStack/KVM testbed.
	EnvPrivateCloud = core.EnvPrivateCloud
	// EnvEC2 models the Amazon EC2 dedicated-host deployment.
	EnvEC2 = core.EnvEC2
)

// Attack kinds.
const (
	// AttackBusSaturation streams through memory to saturate the bus.
	AttackBusSaturation = memmodel.AttackBusSaturation
	// AttackMemoryLock asserts bus locks with unaligned atomics (the
	// paper's evaluation choice: strictly more effective).
	AttackMemoryLock = memmodel.AttackMemoryLock
)

// Placement modes for bandwidth profiling.
const (
	// PlacementSamePackage pins all VMs to one package.
	PlacementSamePackage = memmodel.PlacementSamePackage
	// PlacementRandomPackage floats VMs over all packages.
	PlacementRandomPackage = memmodel.PlacementRandomPackage
)

// FigurePercentiles is the percentile grid of Report curves (Figures 2
// and 7). Treat it as read-only.
func FigurePercentiles() []float64 {
	cp := make([]float64, len(core.FigurePercentiles))
	copy(cp, core.FigurePercentiles)
	return cp
}

// DefaultConfig returns the paper's RUBBoS evaluation setup: 3500 clients,
// 3 minutes, memory-lock attack with I = 2 s and L = 500 ms on EC2.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultFeedback returns the paper's control goal: client p95 above 1 s
// with millibottlenecks under 1 s.
func DefaultFeedback() FeedbackSpec { return control.DefaultConfig() }

// NewExperiment validates a configuration and wires every component.
func NewExperiment(cfg Config) (*Experiment, error) { return core.NewExperiment(cfg) }

// Replicate runs the experiment `runs` times with deterministically
// derived per-run seeds, fanning the runs over up to opts.Workers
// goroutines; the result set is identical for every worker count.
func Replicate(ctx context.Context, cfg Config, runs int, opts ReplicateOptions) ([]Replication, error) {
	return core.Replicate(ctx, cfg, runs, opts)
}

// DeriveSeed deterministically derives the seed of replication `index`
// from a base seed (a splitmix64 step; the scheme is frozen).
func DeriveSeed(base int64, index int) int64 { return sweep.DeriveSeed(base, index) }

// RUBBoSModel returns the analytical model matching the default topology.
func RUBBoSModel() Model { return analytical.RUBBoS3Tier() }

// PredictAttack evaluates Equations (2)-(10) for an attack on a model.
func PredictAttack(m Model, a ModelAttack) (Prediction, error) { return m.Predict(a) }

// PlanAttack inverts the model: find the weakest attack parameters that
// meet the goal's damage floor under its stealth bound at the given burst
// interval.
func PlanAttack(m Model, goal PlanGoal, interval time.Duration) (ModelAttack, error) {
	return analytical.PlanAttack(m, goal, interval)
}

// XeonE5_2603v3 returns the paper's private-cloud host model.
func XeonE5_2603v3() HostConfig { return memmodel.XeonE5_2603v3() }

// EC2DedicatedHost returns the paper's EC2 dedicated-host model.
func EC2DedicatedHost() HostConfig { return memmodel.EC2DedicatedHost() }

// Profile measures the per-VM available memory bandwidth under the given
// co-location and attack (the Section III profiling experiment).
func Profile(spec ProfileSpec) (BandwidthPoint, error) { return memmodel.Profile(spec) }

// Sweep profiles 1..spec.VMs co-located VMs (one Figure 3 curve).
func Sweep(spec ProfileSpec) ([]BandwidthPoint, error) { return memmodel.Sweep(spec) }

// DefaultAutoScaler returns the modelled AWS trigger: 85% average CPU over
// one 1-minute CloudWatch period.
func DefaultAutoScaler() monitor.AutoScalerConfig { return monitor.DefaultAutoScaler() }
