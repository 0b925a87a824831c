// Package cloud models the IaaS side of the study: the adversary's
// co-location campaign onto the victim's host, and a live Auto Scaling
// group that grows a tier's fleet when the CloudWatch-style trigger fires
// — the elasticity mechanism the MemCA attack is shown to bypass.
package cloud

import (
	"fmt"
	"time"

	"memca/internal/monitor"
	"memca/internal/queueing"
	"memca/internal/sim"
)

// ScalingGroupConfig wires a live Auto Scaling group to one tier.
type ScalingGroupConfig struct {
	// Engine drives the periodic trigger evaluation.
	Engine *sim.Engine
	// Network and Tier locate the fleet being scaled.
	Network *queueing.Network
	Tier    int
	// Trigger is the CloudWatch-style policy.
	Trigger monitor.AutoScalerConfig
	// MaxInstances caps the fleet (initial fleet is 1).
	MaxInstances int
	// ProvisionDelay is how long a new instance takes to come up before
	// it adds capacity (EC2 boots are minutes; default 1 minute).
	ProvisionDelay time.Duration
}

// ScalingGroup periodically evaluates the trigger against the tier's real
// utilization and grows the fleet when it breaches — the live counterpart
// of the offline monitor.AutoScaler analysis.
type ScalingGroup struct {
	cfg       ScalingGroupConfig
	trigger   monitor.Trigger
	instances int
	running   bool
	events    []monitor.ScaleEvent
}

// NewScalingGroup validates the wiring and builds a group with one
// instance. It turns on the transition history of the tier's busy
// integrator, so build the group before the run starts.
func NewScalingGroup(cfg ScalingGroupConfig) (*ScalingGroup, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("cloud: engine must not be nil")
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("cloud: network must not be nil")
	}
	if cfg.Tier < 0 || cfg.Tier >= cfg.Network.NumTiers() {
		return nil, fmt.Errorf("cloud: tier %d out of range [0,%d)", cfg.Tier, cfg.Network.NumTiers())
	}
	if err := cfg.Trigger.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxInstances <= 0 {
		return nil, fmt.Errorf("cloud: MaxInstances must be positive, got %d", cfg.MaxInstances)
	}
	if cfg.ProvisionDelay < 0 {
		return nil, fmt.Errorf("cloud: ProvisionDelay must be non-negative, got %v", cfg.ProvisionDelay)
	}
	if cfg.ProvisionDelay == 0 {
		cfg.ProvisionDelay = time.Minute
	}
	// Trigger evaluation reads utilization windows of the tier.
	busy, err := cfg.Network.TierBusy(cfg.Tier)
	if err != nil {
		return nil, err
	}
	busy.KeepHistory()
	return &ScalingGroup{cfg: cfg, trigger: monitor.NewTrigger(cfg.Trigger), instances: 1}, nil
}

// Instances returns the current fleet size (including booting instances).
func (g *ScalingGroup) Instances() int { return g.instances }

// Events returns the scale-out actions taken so far.
func (g *ScalingGroup) Events() []monitor.ScaleEvent {
	out := make([]monitor.ScaleEvent, len(g.events))
	copy(out, g.events)
	return out
}

// Start begins trigger evaluation at the configured period.
func (g *ScalingGroup) Start() {
	if g.running {
		return
	}
	g.running = true
	g.scheduleEval()
}

// Stop halts trigger evaluation.
func (g *ScalingGroup) Stop() { g.running = false }

func (g *ScalingGroup) scheduleEval() {
	g.cfg.Engine.Schedule(g.cfg.Trigger.Period, func() {
		if !g.running {
			return
		}
		g.evaluate()
		g.scheduleEval()
	})
}

func (g *ScalingGroup) evaluate() {
	now := g.cfg.Engine.Now()
	from := now - g.cfg.Trigger.Period
	if from < 0 {
		from = 0
	}
	util, err := g.cfg.Network.TierUtilization(g.cfg.Tier, from, now)
	if err != nil {
		panic(err) // tier validated at construction
	}
	// A fleet at its cap never shrinks, so leaving the trigger uncommitted
	// there changes no later decision.
	if !g.trigger.Breached(now, util) || g.instances >= g.cfg.MaxInstances {
		return
	}
	g.trigger.Fire(now)
	g.instances++
	g.events = append(g.events, monitor.ScaleEvent{At: now, Utilization: util})
	target := float64(g.instances)
	g.cfg.Engine.Schedule(g.cfg.ProvisionDelay, func() {
		// Capacity arrives when the instance finishes booting.
		if err := g.cfg.Network.SetCapacityScale(g.cfg.Tier, target); err != nil {
			panic(err)
		}
	})
}
