package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/spec"
)

// document is the one config file format memca-sim and memca-plan share:
// the spec sections (system, traffic, slo; see spec.PlanJSON) next to the
// experiment's scenario fields. Durations are Go duration strings
// ("500ms", "2s"), enums are lowercase names. Every key is optional, and
// an unknown key is an error rather than a silent default.
type document struct {
	spec.PlanJSON

	Seed     int64  `json:"seed"`
	Env      string `json:"env"`      // "ec2" or "private-cloud"
	Duration string `json:"duration"` // e.g. "3m"
	Warmup   string `json:"warmup"`   // e.g. "20s"

	Attack *struct {
		Kind         string  `json:"kind"` // "lock" or "saturation"
		Intensity    float64 `json:"intensity"`
		BurstLength  string  `json:"burst_length"`
		Interval     string  `json:"interval"`
		AdversaryVMs int     `json:"adversary_vms"`
	} `json:"attack,omitempty"`

	Feedback *struct {
		TargetP95          string `json:"target_p95"`
		MaxMillibottleneck string `json:"max_millibottleneck"`
		DecisionEvery      string `json:"decision_every"`
	} `json:"feedback,omitempty"`

	Scaling *struct {
		Threshold    float64 `json:"threshold"`
		MaxInstances int     `json:"max_instances"`
	} `json:"scaling,omitempty"`

	Defense *struct {
		SplitLockProtection   bool    `json:"split_lock_protection"`
		VictimReservationMBps float64 `json:"victim_reservation_mbps"`
	} `json:"defense,omitempty"`

	RecordSeries    bool   `json:"record_series,omitempty"`
	LLCSamplePeriod string `json:"llc_sample_period,omitempty"`
}

// Load reads a config document and resolves it into a validated
// experiment Config plus the spec triple it describes. Missing fields
// fall back to DefaultConfig and the RUBBoS spec defaults. The population
// always comes from the traffic section. A system section replaces the
// topology through FromSpec; without one, Tiers stays nil and the run
// uses the class-aware RUBBoS default.
func Load(path string) (Config, spec.System, spec.Traffic, spec.SLO, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, spec.System{}, spec.Traffic{}, spec.SLO{}, fmt.Errorf("core: reading config: %w", err)
	}
	cfg, sys, traffic, slo, err := parse(data)
	if err != nil {
		return Config{}, spec.System{}, spec.Traffic{}, spec.SLO{}, fmt.Errorf("core: config %s: %w", path, err)
	}
	return cfg, sys, traffic, slo, nil
}

// parse is Load's bytes-level half.
func parse(data []byte) (Config, spec.System, spec.Traffic, spec.SLO, error) {
	fail := func(err error) (Config, spec.System, spec.Traffic, spec.SLO, error) {
		return Config{}, spec.System{}, spec.Traffic{}, spec.SLO{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j document
	if err := dec.Decode(&j); err != nil {
		return fail(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fail(fmt.Errorf("trailing data after the config document"))
	}
	sys, traffic, slo, err := j.Resolve()
	if err != nil {
		return fail(err)
	}
	cfg, err := j.toConfig(traffic)
	if err != nil {
		return fail(err)
	}
	if j.System != nil {
		if cfg, err = cfg.FromSpec(sys, traffic); err != nil {
			return fail(err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	return cfg, sys, traffic, slo, nil
}

// toConfig converts the scenario fields into a Config running the given
// traffic's population on the default topology.
func (j document) toConfig(traffic spec.Traffic) (Config, error) {
	def := DefaultConfig()
	cfg := Config{
		Seed:         j.Seed,
		Clients:      traffic.Clients,
		ThinkTime:    traffic.ThinkTime,
		RecordSeries: j.RecordSeries,
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	switch j.Env {
	case "", "ec2":
		cfg.Env = EnvEC2
	case "private-cloud", "private":
		cfg.Env = EnvPrivateCloud
	default:
		return Config{}, fmt.Errorf("core: unknown env %q", j.Env)
	}
	var err error
	if cfg.Duration, err = spec.ParseDuration(j.Duration, def.Duration); err != nil {
		return Config{}, err
	}
	if cfg.Warmup, err = spec.ParseDuration(j.Warmup, def.Warmup); err != nil {
		return Config{}, err
	}
	if cfg.LLCSamplePeriod, err = spec.ParseDuration(j.LLCSamplePeriod, 0); err != nil {
		return Config{}, err
	}

	if j.Attack != nil {
		a := AttackSpec{AdversaryVMs: j.Attack.AdversaryVMs}
		if a.AdversaryVMs == 0 {
			a.AdversaryVMs = 1
		}
		switch j.Attack.Kind {
		case "", "lock", "memory-lock":
			a.Kind = memmodel.AttackMemoryLock
		case "saturation", "bus-saturation":
			a.Kind = memmodel.AttackBusSaturation
		default:
			return Config{}, fmt.Errorf("core: unknown attack kind %q", j.Attack.Kind)
		}
		a.Params = attack.Params{Intensity: j.Attack.Intensity}
		if a.Params.Intensity == 0 {
			a.Params.Intensity = 1
		}
		if a.Params.BurstLength, err = spec.ParseDuration(j.Attack.BurstLength, def.Attack.Params.BurstLength); err != nil {
			return Config{}, err
		}
		if a.Params.Interval, err = spec.ParseDuration(j.Attack.Interval, def.Attack.Params.Interval); err != nil {
			return Config{}, err
		}
		cfg.Attack = &a
	}

	if j.Feedback != nil {
		fb := control.DefaultConfig()
		if fb.Goal.TargetRT, err = spec.ParseDuration(j.Feedback.TargetP95, fb.Goal.TargetRT); err != nil {
			return Config{}, err
		}
		if fb.Goal.MaxMillibottleneck, err = spec.ParseDuration(j.Feedback.MaxMillibottleneck, fb.Goal.MaxMillibottleneck); err != nil {
			return Config{}, err
		}
		if fb.DecisionEvery, err = spec.ParseDuration(j.Feedback.DecisionEvery, fb.DecisionEvery); err != nil {
			return Config{}, err
		}
		cfg.Feedback = &fb
	}

	if j.Scaling != nil {
		trigger := monitor.DefaultAutoScaler()
		if j.Scaling.Threshold > 0 {
			trigger.Threshold = j.Scaling.Threshold
		}
		max := j.Scaling.MaxInstances
		if max == 0 {
			max = 4
		}
		cfg.Scaling = &ScalingSpec{Trigger: trigger, MaxInstances: max}
	}

	if j.Defense != nil {
		cfg.Defense = &DefenseSpec{
			SplitLockProtection:   j.Defense.SplitLockProtection,
			VictimReservationMBps: j.Defense.VictimReservationMBps,
		}
	}
	return cfg, nil
}
