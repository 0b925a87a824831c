// Package core orchestrates complete MemCA experiments: it wires the cloud
// platform (hosts, placement, co-location), the RUBBoS-style n-tier
// system, the client population, the memory-contention attack, the
// optional feedback controller, elastic scaling, and the monitoring stack
// into a single reproducible run, and distills the outcome into a Report.
package core

import (
	"fmt"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/queueing"
	"memca/internal/stats"
	"memca/internal/telemetry"
	"memca/internal/workload"
)

// Env selects which of the paper's two environments to model.
type Env int

// Environments.
const (
	// EnvPrivateCloud is the OpenStack/KVM testbed (Xeon E5-2603 v3).
	EnvPrivateCloud Env = iota + 1
	// EnvEC2 is the Amazon EC2 dedicated-host deployment (Xeon E5-2680).
	EnvEC2
)

// String implements fmt.Stringer.
func (e Env) String() string {
	switch e {
	case EnvPrivateCloud:
		return "private-cloud"
	case EnvEC2:
		return "ec2"
	default:
		return fmt.Sprintf("Env(%d)", int(e))
	}
}

// HostConfig returns the memory-subsystem model for the environment.
func (e Env) HostConfig() (memmodel.HostConfig, error) {
	switch e {
	case EnvPrivateCloud:
		return memmodel.XeonE5_2603v3(), nil
	case EnvEC2:
		return memmodel.EC2DedicatedHost(), nil
	default:
		return memmodel.HostConfig{}, fmt.Errorf("core: unknown environment %v", e)
	}
}

// AttackSpec configures the adversary.
type AttackSpec struct {
	// Kind selects memory locking (the paper's evaluation choice) or bus
	// saturation.
	Kind memmodel.AttackKind
	// Params are the initial (R, L, I) knobs.
	Params attack.Params
	// AdversaryVMs is how many co-located attack VMs to place (the paper
	// needs only one or a few).
	AdversaryVMs int
}

// Validate reports the first attack-spec error, or nil.
func (s AttackSpec) Validate() error {
	if s.Kind != memmodel.AttackBusSaturation && s.Kind != memmodel.AttackMemoryLock {
		return fmt.Errorf("core: unknown attack kind %v", s.Kind)
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.AdversaryVMs <= 0 {
		return fmt.Errorf("core: AdversaryVMs must be positive, got %d", s.AdversaryVMs)
	}
	return nil
}

// ScalingSpec enables the cloud's elastic scaling during the run.
type ScalingSpec struct {
	// Trigger is the CloudWatch-style policy.
	Trigger monitor.AutoScalerConfig
	// MaxInstances caps the bottleneck tier's fleet.
	MaxInstances int
	// ProvisionDelay is instance boot time.
	ProvisionDelay time.Duration
}

// DefenseSpec enables countermeasures on the victim's host (see the
// defense package for the detection side).
type DefenseSpec struct {
	// SplitLockProtection traps the bus locks the memory-lock attack
	// relies on (the kernel split-lock mitigation).
	SplitLockProtection bool
	// VictimReservationMBps carves a dedicated bandwidth partition for
	// the victim VM (Intel MBA / Heracles style). Zero disables.
	VictimReservationMBps float64
}

// Config assembles one experiment.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// Env picks the modelled testbed.
	Env Env
	// Duration is the measured phase length (paper: 3 minutes).
	Duration time.Duration
	// Warmup runs before measurement starts and is discarded.
	Warmup time.Duration
	// Clients is the emulated user population (paper: 3500).
	Clients int
	// ThinkTime is the mean think time (paper: 7 s).
	ThinkTime time.Duration
	// Tiers overrides the default RUBBoS topology when non-nil.
	Tiers []queueing.TierConfig
	// Attack enables the adversary; nil runs the clean baseline.
	Attack *AttackSpec
	// Feedback enables the MemCA-BE control loop (requires Attack).
	Feedback *control.Config
	// Scaling enables elastic scaling of the bottleneck tier.
	Scaling *ScalingSpec
	// Defense enables host-side countermeasures on the victim host.
	Defense *DefenseSpec
	// RecordSeries keeps per-completion response-time points and enables
	// the fine-grained snapshot figure.
	RecordSeries bool
	// Trace enables per-request causal tracing (see internal/telemetry);
	// nil disables it, leaving the request path free of observer hooks.
	Trace *telemetry.Spec
	// LLCSamplePeriod, when positive, samples the victim and adversary
	// VMs' LLC miss rates (Figure 11).
	LLCSamplePeriod time.Duration
	// Arena backs the run's simulation engine and every stats object of
	// the run (tier and client samples, level integrators, the burster's
	// activity, the LLC series, the tracer's duration slab) with recycled
	// storage; see stats.Arena. Nil makes NewExperiment take a warm arena
	// from stats.GetArena, which Experiment.Close resets and returns. A
	// caller-supplied arena is the caller's to Reset, and Close leaves it
	// alone. It is a runtime-only knob — the config file format (see
	// Load) does not carry it. The arena must not be Reset before the
	// run's Report has been built, and the Experiment must not be used
	// after it: the Reset empties the engine for the next checkout. The
	// Report itself holds only heap copies and survives a Reset.
	Arena *stats.Arena
}

// DefaultConfig returns the paper's RUBBoS evaluation setup with the
// memory-lock attack at I = 2 s, L = 500 ms.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		Env:       EnvEC2,
		Duration:  3 * time.Minute,
		Warmup:    20 * time.Second,
		Clients:   3500,
		ThinkTime: 7 * time.Second,
		Attack: &AttackSpec{
			Kind: memmodel.AttackMemoryLock,
			Params: attack.Params{
				Intensity:   1,
				BurstLength: 500 * time.Millisecond,
				Interval:    2 * time.Second,
			},
			AdversaryVMs: 1,
		},
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if _, err := c.Env.HostConfig(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: Duration must be positive, got %v", c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("core: Warmup must be non-negative, got %v", c.Warmup)
	}
	if c.Clients <= 0 {
		return fmt.Errorf("core: Clients must be positive, got %d", c.Clients)
	}
	if c.ThinkTime <= 0 {
		return fmt.Errorf("core: ThinkTime must be positive, got %v", c.ThinkTime)
	}
	if c.Attack != nil {
		if err := c.Attack.Validate(); err != nil {
			return err
		}
	}
	if c.Feedback != nil {
		if c.Attack == nil {
			return fmt.Errorf("core: Feedback requires Attack")
		}
		if err := c.Feedback.Validate(); err != nil {
			return err
		}
	}
	if c.Scaling != nil {
		if err := c.Scaling.Trigger.Validate(); err != nil {
			return err
		}
		if c.Scaling.MaxInstances <= 0 {
			return fmt.Errorf("core: Scaling.MaxInstances must be positive, got %d", c.Scaling.MaxInstances)
		}
	}
	if c.Defense != nil && c.Defense.VictimReservationMBps < 0 {
		return fmt.Errorf("core: VictimReservationMBps must be non-negative, got %v", c.Defense.VictimReservationMBps)
	}
	if c.LLCSamplePeriod < 0 {
		return fmt.Errorf("core: LLCSamplePeriod must be non-negative, got %v", c.LLCSamplePeriod)
	}
	if c.Trace != nil {
		if err := c.Trace.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// tierNames are the canonical 3-tier labels used across reports.
var tierNames = []string{"apache", "tomcat", "mysql"}

// probeClass is the request class the MemCA-BE prober uses: a database
// read, so the probe traverses the full critical path.
const probeClass = workload.ClassDBLight
