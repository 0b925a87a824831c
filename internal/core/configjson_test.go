package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memca/internal/memmodel"
	"memca/internal/spec"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigFull(t *testing.T) {
	path := writeConfig(t, `{
		"seed": 7,
		"env": "private-cloud",
		"duration": "90s",
		"warmup": "5s",
		"traffic": {"clients": 500, "think_time": "2s", "growth": 1.5},
		"slo": {"percentile": 95, "target_rt": "800ms", "max_drop_rate": 0.02},
		"attack": {
			"kind": "saturation",
			"intensity": 0.8,
			"burst_length": "300ms",
			"interval": "3s",
			"adversary_vms": 2
		},
		"feedback": {
			"target_p95": "800ms",
			"max_millibottleneck": "900ms",
			"decision_every": "4s"
		},
		"scaling": {"threshold": 0.9, "max_instances": 3},
		"defense": {"split_lock_protection": true, "victim_reservation_mbps": 2500},
		"record_series": true,
		"llc_sample_period": "50ms"
	}`)
	cfg, sys, traffic, slo, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Env != EnvPrivateCloud || cfg.Clients != 500 {
		t.Errorf("basic fields wrong: %+v", cfg)
	}
	if cfg.Duration != 90*time.Second || cfg.Warmup != 5*time.Second || cfg.ThinkTime != 2*time.Second {
		t.Errorf("durations wrong: %+v", cfg)
	}
	if cfg.Attack == nil || cfg.Attack.Kind != memmodel.AttackBusSaturation ||
		cfg.Attack.Params.Intensity != 0.8 || cfg.Attack.Params.BurstLength != 300*time.Millisecond ||
		cfg.Attack.Params.Interval != 3*time.Second || cfg.Attack.AdversaryVMs != 2 {
		t.Errorf("attack wrong: %+v", cfg.Attack)
	}
	if cfg.Feedback == nil || cfg.Feedback.Goal.TargetRT != 800*time.Millisecond ||
		cfg.Feedback.DecisionEvery != 4*time.Second {
		t.Errorf("feedback wrong: %+v", cfg.Feedback)
	}
	if cfg.Scaling == nil || cfg.Scaling.Trigger.Threshold != 0.9 || cfg.Scaling.MaxInstances != 3 {
		t.Errorf("scaling wrong: %+v", cfg.Scaling)
	}
	if cfg.Defense == nil || !cfg.Defense.SplitLockProtection || cfg.Defense.VictimReservationMBps != 2500 {
		t.Errorf("defense wrong: %+v", cfg.Defense)
	}
	if !cfg.RecordSeries || cfg.LLCSamplePeriod != 50*time.Millisecond {
		t.Errorf("extras wrong: %+v", cfg)
	}
	if cfg.Tiers != nil || len(sys.Tiers) != len(spec.RUBBoSSystem().Tiers) {
		t.Errorf("no system section must keep the default topology: %d tiers, spec %+v", len(cfg.Tiers), sys)
	}
	if traffic.Clients != 500 || traffic.ThinkTime != 2*time.Second || traffic.Growth != 1.5 {
		t.Errorf("traffic wrong: %+v", traffic)
	}
	if slo.Percentile != 95 || slo.TargetRT != 800*time.Millisecond || slo.MaxDropRate != 0.02 {
		t.Errorf("slo wrong: %+v", slo)
	}
}

func TestLoadConfigSystemSection(t *testing.T) {
	path := writeConfig(t, `{
		"system": {"tiers": [
			{"name": "web", "threads": 40, "servers": 2, "service": "1ms", "replicas": 2},
			{"name": "db", "threads": 10, "servers": 1, "service": "3ms"}
		]},
		"traffic": {"clients": 300, "think_time": "1s", "tier_mix": [0.3, 0.7]}
	}`)
	cfg, sys, _, slo, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tiers) != 2 || cfg.Tiers[0].QueueLimit != 80 || cfg.Tiers[0].Servers != 4 ||
		cfg.Tiers[1].Service.Mean() != 3*time.Millisecond {
		t.Errorf("system section not applied through FromSpec: %+v", cfg.Tiers)
	}
	if len(sys.Tiers) != 2 || sys.Tiers[0].Replicas != 2 {
		t.Errorf("system spec wrong: %+v", sys)
	}
	if cfg.Clients != 300 || cfg.ThinkTime != time.Second {
		t.Errorf("population not from traffic: %d clients, %v think", cfg.Clients, cfg.ThinkTime)
	}
	if slo != spec.DefaultSLO() {
		t.Errorf("missing slo section = %+v, want the default", slo)
	}
}

func TestLoadConfigDefaults(t *testing.T) {
	path := writeConfig(t, `{"attack": {}}`)
	cfg, _, traffic, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.Env != def.Env || cfg.Duration != def.Duration || cfg.Clients != def.Clients || cfg.ThinkTime != def.ThinkTime {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Attack == nil || cfg.Attack.Kind != memmodel.AttackMemoryLock ||
		cfg.Attack.Params != def.Attack.Params || cfg.Attack.AdversaryVMs != 1 {
		t.Errorf("attack defaults wrong: %+v", cfg.Attack)
	}
	if traffic.Clients != spec.RUBBoSTraffic().Clients || traffic.ThinkTime != spec.RUBBoSTraffic().ThinkTime {
		t.Errorf("traffic defaults wrong: %+v", traffic)
	}
}

func TestLoadConfigBaseline(t *testing.T) {
	path := writeConfig(t, `{"duration": "30s", "warmup": "1s", "traffic": {"clients": 100}}`)
	cfg, _, _, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Attack != nil {
		t.Error("attack present without an attack stanza")
	}
	// The loaded config must actually run.
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"trailing data", `{} {}`},
		{"bad env", `{"env": "azure"}`},
		{"bad duration", `{"duration": "three minutes"}`},
		{"bad attack kind", `{"attack": {"kind": "rowhammer"}}`},
		{"bad burst", `{"attack": {"burst_length": "xx"}}`},
		{"feedback without attack", `{"feedback": {}}`},
		{"negative reservation", `{"attack": {}, "defense": {"victim_reservation_mbps": -5}}`},
		{"negative clients", `{"traffic": {"clients": -5}}`},
		{"empty system", `{"system": {"tiers": []}}`},
		{"bad service", `{"system": {"tiers": [{"name": "db", "threads": 4, "servers": 1, "service": "fast"}]}}`},
		{"slo percentile 100", `{"slo": {"percentile": 100, "target_rt": "1s"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeConfig(t, tc.body)
			if _, _, _, _, err := Load(path); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, _, _, _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadRejectsUnknownKeys pins that a misspelt or misplaced key is an
// error naming the key, not a silently applied default.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	cases := []struct {
		name, body, key string
	}{
		{"attack burst", `{"attack":{"kind":"lock","burst":"100ms"}}`, `"burst"`},
		{"traffic client", `{"traffic":{"client":100}}`, `"client"`},
		{"old top-level clients", `{"clients":3500,"think_time":"7s"}`, `"clients"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, _, err := Load(writeConfig(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.key) {
				t.Errorf("Load(%s) = %v, want an error naming %s", tc.body, err, tc.key)
			}
		})
	}
}

// TestCheckedInConfigsLoad loads every file under configs/: the plan file
// yields the FromSpec topology, the scenario files keep the default one
// with the paper's population.
func TestCheckedInConfigsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("found %d config files, want 4", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			cfg, sys, traffic, _, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(path) == "plan-rubbos.json" {
				want, err := DefaultConfig().FromSpec(sys, traffic)
				if err != nil {
					t.Fatal(err)
				}
				if len(cfg.Tiers) != len(want.Tiers) {
					t.Fatalf("%d tiers, want %d", len(cfg.Tiers), len(want.Tiers))
				}
				for i, tier := range cfg.Tiers {
					w := want.Tiers[i]
					if tier.Name != w.Name || tier.QueueLimit != w.QueueLimit || tier.Servers != w.Servers ||
						tier.Service.Mean() != w.Service.Mean() {
						t.Errorf("tier %d = %+v, want %+v", i, tier, w)
					}
				}
				return
			}
			if cfg.Tiers != nil {
				t.Errorf("scenario file set a topology: %+v", cfg.Tiers)
			}
			if cfg.Clients != 3500 || cfg.ThinkTime != 7*time.Second {
				t.Errorf("population = %d clients, %v think; want 3500, 7s", cfg.Clients, cfg.ThinkTime)
			}
		})
	}
}
