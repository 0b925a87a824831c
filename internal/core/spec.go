package core

import (
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/spec"
)

// FromSpec returns a copy of the config with the tier topology and the
// client population replaced by the shared spec description: the system
// becomes the topology through SpecTiers, and the traffic's base
// population becomes Clients/ThinkTime. Everything else —
// seed, environment, durations, attack, defense — carries over from the
// receiver, so the same spec can be replayed under any scenario.
//
// Forecast shaping (growth, diurnal peaks) is deliberately not applied:
// the config runs the base population. Use Traffic.AtPeak first to
// simulate the forecast peak the planner sized for.
func (c Config) FromSpec(sys spec.System, traffic spec.Traffic) (Config, error) {
	if err := sys.Validate(); err != nil {
		return Config{}, err
	}
	if err := traffic.Validate(); err != nil {
		return Config{}, err
	}
	c.Tiers = SpecTiers(sys)
	c.Clients = traffic.Clients
	c.ThinkTime = traffic.ThinkTime
	return c, nil
}

// SpecTiers converts a valid system into the simulator's topology: each
// tier becomes a pooled multi-server station (QueueLimit = Threads *
// Replicas, Servers * Replicas stations behind an ideal balancer) with an
// exponential service time at the template's mean. The request classes,
// not DemandFactor, scale each tier's demand.
func SpecTiers(sys spec.System) []queueing.TierConfig {
	tiers := make([]queueing.TierConfig, len(sys.Tiers))
	for i, t := range sys.Tiers {
		tiers[i] = queueing.TierConfig{
			Name:       t.Name,
			QueueLimit: t.PooledThreads(),
			Servers:    t.PooledServers(),
			Service:    sim.NewExponential(t.Service),
		}
	}
	return tiers
}
