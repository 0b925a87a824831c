package core

import (
	"testing"
	"time"

	"memca/internal/spec"
)

func TestFromSpecRoundTrip(t *testing.T) {
	sys, err := spec.RUBBoSSystem().WithReplicas([]int{2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	traffic := spec.Traffic{Clients: 2600, ThinkTime: time.Second}
	cfg, err := DefaultConfig().FromSpec(sys, traffic)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clients != 2600 || cfg.ThinkTime != time.Second {
		t.Errorf("population not applied: %d clients, %v think", cfg.Clients, cfg.ThinkTime)
	}
	if cfg.Attack == nil || cfg.Seed != DefaultConfig().Seed {
		t.Error("FromSpec must carry the receiver's scenario over")
	}
	for i, tier := range cfg.Tiers {
		want := sys.Tiers[i]
		if tier.QueueLimit != want.PooledThreads() || tier.Servers != want.PooledServers() {
			t.Errorf("tier %d pooled as %d/%d, want %d/%d",
				i, tier.QueueLimit, tier.Servers, want.PooledThreads(), want.PooledServers())
		}
		if got := tier.Service.Mean(); got != want.Service {
			t.Errorf("tier %d service mean %v, want %v", i, got, want.Service)
		}
	}
}

// TestSpecDefaultTopology pins what a config document without a system
// section means: the RUBBoS spec for the planner and the nil (class-aware
// RUBBoS) topology for the simulator, with the paper's population.
func TestSpecDefaultTopology(t *testing.T) {
	cfg, sys, traffic, slo, err := parse([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tiers != nil {
		t.Errorf("default topology should stay nil, got %d tiers", len(cfg.Tiers))
	}
	want := spec.RUBBoSSystem()
	if len(sys.Tiers) != len(want.Tiers) {
		t.Fatalf("default system has %d tiers", len(sys.Tiers))
	}
	for i, tier := range sys.Tiers {
		if tier != want.Tiers[i] {
			t.Errorf("tier %d = %+v, want RUBBoS template %+v", i, tier, want.Tiers[i])
		}
	}
	if traffic.Clients != 3500 || traffic.ThinkTime != 7*time.Second ||
		cfg.Clients != traffic.Clients || cfg.ThinkTime != traffic.ThinkTime {
		t.Errorf("population: traffic %+v, config %d clients %v think", traffic, cfg.Clients, cfg.ThinkTime)
	}
	if slo != spec.DefaultSLO() {
		t.Errorf("slo = %+v, want the default", slo)
	}
}

func TestFromSpecRejectsInvalid(t *testing.T) {
	if _, err := DefaultConfig().FromSpec(spec.System{}, spec.RUBBoSTraffic()); err == nil {
		t.Error("expected error for empty system")
	}
	if _, err := DefaultConfig().FromSpec(spec.RUBBoSSystem(), spec.Traffic{}); err == nil {
		t.Error("expected error for empty traffic")
	}
}
