package spec

import (
	"strings"
	"testing"
	"time"
)

func TestRUBBoSSystemValid(t *testing.T) {
	sys := RUBBoSSystem()
	if err := sys.Validate(); err != nil {
		t.Fatalf("RUBBoS system rejected: %v", err)
	}
	if err := sys.CheckCondition1(); err != nil {
		t.Fatalf("RUBBoS system violates condition 1: %v", err)
	}
}

func TestRUBBoSModelMatchesAnalytical(t *testing.T) {
	// The spec-derived model must reproduce the hand-written
	// analytical.RUBBoS3Tier parameters: same queues, capacities within
	// 1.5% (the demand factors are rounded), arrival rates from the mix.
	m, err := RUBBoSSystem().Model(Traffic{Clients: 3500, ThinkTime: 7 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	wantQueues := []int{100, 60, 25}
	wantCaps := []float64{3330, 1670, 920}
	for i, tier := range m.Tiers {
		if tier.Queue != wantQueues[i] {
			t.Errorf("tier %d queue = %d, want %d", i, tier.Queue, wantQueues[i])
		}
		if rel := (tier.CapacityOFF - wantCaps[i]) / wantCaps[i]; rel > 0.015 || rel < -0.015 {
			t.Errorf("tier %d capacity = %v, want ~%v", i, tier.CapacityOFF, wantCaps[i])
		}
	}
	total := 0.0
	for _, tier := range m.Tiers {
		total += tier.ArrivalRate
	}
	if total < 495 || total > 505 {
		t.Errorf("total arrival rate = %v, want ~500", total)
	}
}

func TestTierSpecPooling(t *testing.T) {
	tier := TierSpec{Name: "db", Threads: 25, Servers: 2, Service: 1600 * time.Microsecond, Replicas: 3}
	if got := tier.PooledThreads(); got != 75 {
		t.Errorf("PooledThreads = %d, want 75", got)
	}
	if got := tier.PooledServers(); got != 6 {
		t.Errorf("PooledServers = %d, want 6", got)
	}
	// Zero-value Replicas and DemandFactor behave as 1.
	zero := TierSpec{Name: "db", Threads: 25, Servers: 2, Service: 1600 * time.Microsecond}
	if got := zero.PooledServers(); got != 2 {
		t.Errorf("zero-value PooledServers = %d, want 2", got)
	}
	if cap3 := tier.Capacity(); cap3 != 3*zero.Capacity() {
		t.Errorf("capacity does not scale with replicas: %v vs 3 x %v", cap3, zero.Capacity())
	}
}

func TestSystemPooledFoldsReplicas(t *testing.T) {
	sys, err := RUBBoSSystem().WithReplicas([]int{2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// A replicated fleet pools into one wide replica of equal capacity,
	// the station FromSpec builds for the simulator.
	for i, tier := range sys.Tiers {
		wide := TierSpec{
			Name:         tier.Name,
			Threads:      tier.PooledThreads(),
			Servers:      tier.PooledServers(),
			Service:      tier.Service,
			DemandFactor: tier.DemandFactor,
		}
		if wide.Threads != tier.Threads*tier.Replicas || wide.Servers != tier.Servers*tier.Replicas {
			t.Errorf("tier %d pooled to %d threads / %d servers from %+v", i, wide.Threads, wide.Servers, tier)
		}
		if got, want := wide.Capacity(), tier.Capacity(); got < want*0.999 || got > want*1.001 {
			t.Errorf("pooled tier %d capacity = %v, want %v", i, got, want)
		}
	}
}

func TestTrafficForecast(t *testing.T) {
	tr := Traffic{Clients: 1000, ThinkTime: 2 * time.Second, Growth: 1.5, Diurnal: []float64{0.4, 1.0, 1.2, 0.7}}
	if got := tr.OfferedRate(); got != 500 {
		t.Errorf("OfferedRate = %v, want 500", got)
	}
	if got, want := tr.PeakMultiplier(), 1.8; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("PeakMultiplier = %v, want %v", got, want)
	}
	if got, want := tr.PeakRate(), 900.0; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("PeakRate = %v, want %v", got, want)
	}
	peak := tr.AtPeak()
	if peak.Clients != 1800 {
		t.Errorf("AtPeak clients = %d, want 1800", peak.Clients)
	}
	if peak.PeakMultiplier() != 1 {
		t.Errorf("AtPeak must flatten the forecast, got multiplier %v", peak.PeakMultiplier())
	}
	// A diurnal trough never lowers the sizing point below the base.
	trough := Traffic{Clients: 1000, ThinkTime: 2 * time.Second, Diurnal: []float64{0.2, 0.5}}
	if got := trough.PeakMultiplier(); got != 1 {
		t.Errorf("trough-only diurnal multiplier = %v, want 1", got)
	}
}

func TestTierRates(t *testing.T) {
	tr := Traffic{Clients: 700, ThinkTime: time.Second, TierMix: []float64{0.1, 0.2, 0.7}}
	rates, err := tr.TierRates(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{70, 140, 490}
	for i := range want {
		if rates[i] < want[i]-1e-9 || rates[i] > want[i]+1e-9 {
			t.Errorf("rates = %v, want ~%v", rates, want)
			break
		}
	}
	// Default mix only exists for 3 tiers.
	if _, err := (Traffic{Clients: 1, ThinkTime: time.Second}).TierRates(2); err == nil {
		t.Error("expected error for default mix on 2 tiers")
	}
	if _, err := tr.TierRates(2); err == nil {
		t.Error("expected error for mix length mismatch")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"threads", TierSpec{Name: "t", Servers: 1, Service: time.Millisecond}.Validate()},
		{"servers", TierSpec{Name: "t", Threads: 4, Service: time.Millisecond}.Validate()},
		{"threads<servers", TierSpec{Name: "t", Threads: 2, Servers: 4, Service: time.Millisecond}.Validate()},
		{"service", TierSpec{Name: "t", Threads: 4, Servers: 2}.Validate()},
		{"empty system", System{}.Validate()},
		{"clients", Traffic{ThinkTime: time.Second}.Validate()},
		{"think", Traffic{Clients: 1}.Validate()},
		{"mix sum", Traffic{Clients: 1, ThinkTime: time.Second, TierMix: []float64{0.5, 0.4}}.Validate()},
		{"slo target", SLO{MaxDropRate: 0.1}.Validate()},
		{"slo drop", SLO{TargetRT: time.Second, MaxDropRate: 1}.Validate()},
		{"slo percentile", SLO{Percentile: 100, TargetRT: time.Second}.Validate()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
	if err := DefaultSLO().Validate(); err != nil {
		t.Errorf("default SLO rejected: %v", err)
	}
	if got := DefaultSLO().EffectivePercentile(); got != 99 {
		t.Errorf("default percentile = %v", got)
	}
	if got := (SLO{}).EffectivePercentile(); got != 99 {
		t.Errorf("zero-value percentile = %v", got)
	}
}

func TestCondition1Violation(t *testing.T) {
	sys, err := RUBBoSSystem().WithReplicas([]int{1, 2, 1}) // tomcat pooled 120 > apache 100
	if err != nil {
		t.Fatal(err)
	}
	err = sys.CheckCondition1()
	if err == nil || !strings.Contains(err.Error(), "condition 1") {
		t.Errorf("CheckCondition1 = %v", err)
	}
}
