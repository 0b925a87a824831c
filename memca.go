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
// model's prediction (Equations 2-10) is re-exported below for direct use.
package memca

import (
	"context"

	"memca/internal/analytical"
	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/core"
	"memca/internal/memmodel"
	"memca/internal/monitor"
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
)

// DefaultTraceSpec returns tracer settings sized for the paper's
// experiments (see telemetry.DefaultSpec).
func DefaultTraceSpec() TraceSpec { return telemetry.DefaultSpec() }

// AttackParams are the (R, L, I) knobs of Equation (1).
type AttackParams = attack.Params

// Re-exported analytical-model types (Equations 2-10).
type (
	// Model is the n-tier analytical model.
	Model = analytical.Model
	// ModelAttack is an analytical attack parameterization.
	ModelAttack = analytical.Attack
	// Prediction is the closed-form attack outcome.
	Prediction = analytical.Prediction
)

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

// RUBBoSModel returns the analytical model matching the default topology.
func RUBBoSModel() Model { return analytical.RUBBoS3Tier() }

// PredictAttack evaluates Equations (2)-(10) for an attack on a model.
func PredictAttack(m Model, a ModelAttack) (Prediction, error) { return m.Predict(a) }

// DefaultAutoScaler returns the modelled AWS trigger: 85% average CPU over
// one 1-minute CloudWatch period.
func DefaultAutoScaler() monitor.AutoScalerConfig { return monitor.DefaultAutoScaler() }
