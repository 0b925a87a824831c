package spec

import (
	"fmt"
	"time"
)

// PlanJSON is the file-facing schema of the spec sections: the system
// templates, the traffic forecast, and the SLO. core.Load embeds it in
// the one config document both memca-sim and memca-plan read. Durations
// are Go duration strings ("600us", "7s"); omitted sections fall back to
// the RUBBoS defaults.
type PlanJSON struct {
	System *struct {
		Tiers []struct {
			Name         string  `json:"name"`
			Threads      int     `json:"threads"`
			Servers      int     `json:"servers"`
			Service      string  `json:"service"`
			DemandFactor float64 `json:"demand_factor,omitempty"`
			Replicas     int     `json:"replicas,omitempty"`
		} `json:"tiers"`
	} `json:"system,omitempty"`

	Traffic *struct {
		Clients   int       `json:"clients"`
		ThinkTime string    `json:"think_time"`
		Growth    float64   `json:"growth,omitempty"`
		Diurnal   []float64 `json:"diurnal,omitempty"`
		TierMix   []float64 `json:"tier_mix,omitempty"`
	} `json:"traffic,omitempty"`

	SLO *struct {
		Percentile  float64 `json:"percentile,omitempty"`
		TargetRT    string  `json:"target_rt"`
		MaxDropRate float64 `json:"max_drop_rate"`
	} `json:"slo,omitempty"`
}

// ParseDuration parses a Go duration string, returning def for empty
// input. It is the duration syntax of every config file section.
func ParseDuration(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("spec: bad duration %q: %w", s, err)
	}
	return d, nil
}

// Resolve converts the file schema into validated specs, filling missing
// sections with the RUBBoS defaults.
func (j PlanJSON) Resolve() (System, Traffic, SLO, error) {
	fail := func(err error) (System, Traffic, SLO, error) {
		return System{}, Traffic{}, SLO{}, err
	}

	sys := RUBBoSSystem()
	if j.System != nil {
		sys = System{}
		for _, t := range j.System.Tiers {
			service, err := ParseDuration(t.Service, 0)
			if err != nil {
				return fail(err)
			}
			sys.Tiers = append(sys.Tiers, TierSpec{
				Name:         t.Name,
				Threads:      t.Threads,
				Servers:      t.Servers,
				Service:      service,
				DemandFactor: t.DemandFactor,
				Replicas:     t.Replicas,
			})
		}
	}
	if err := sys.Validate(); err != nil {
		return fail(err)
	}

	traffic := RUBBoSTraffic()
	if j.Traffic != nil {
		think, err := ParseDuration(j.Traffic.ThinkTime, traffic.ThinkTime)
		if err != nil {
			return fail(err)
		}
		traffic = Traffic{
			Clients:   j.Traffic.Clients,
			ThinkTime: think,
			Growth:    j.Traffic.Growth,
			Diurnal:   j.Traffic.Diurnal,
			TierMix:   j.Traffic.TierMix,
		}
		if traffic.Clients == 0 {
			traffic.Clients = RUBBoSTraffic().Clients
		}
	}
	if err := traffic.Validate(); err != nil {
		return fail(err)
	}

	slo := DefaultSLO()
	if j.SLO != nil {
		target, err := ParseDuration(j.SLO.TargetRT, slo.TargetRT)
		if err != nil {
			return fail(err)
		}
		slo = SLO{Percentile: j.SLO.Percentile, TargetRT: target, MaxDropRate: j.SLO.MaxDropRate}
	}
	if err := slo.Validate(); err != nil {
		return fail(err)
	}
	return sys, traffic, slo, nil
}
