package memmodel

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHostConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*HostConfig)
	}{
		{"zero packages", func(c *HostConfig) { c.Packages = 0 }},
		{"zero cores", func(c *HostConfig) { c.CoresPerPackage = 0 }},
		{"zero bandwidth", func(c *HostConfig) { c.BusBandwidthMBps = 0 }},
		{"zero core demand", func(c *HostConfig) { c.SingleCoreDemandMBps = 0 }},
		{"overhead 1", func(c *HostConfig) { c.ContentionOverhead = 1 }},
		{"negative overhead", func(c *HostConfig) { c.ContentionOverhead = -0.1 }},
		{"numa 0", func(c *HostConfig) { c.NUMAEfficiency = 0 }},
		{"numa >1", func(c *HostConfig) { c.NUMAEfficiency = 1.5 }},
		{"lock fraction 0", func(c *HostConfig) { c.LockBandwidthFraction = 0 }},
		{"negative eviction", func(c *HostConfig) { c.EvictionPressure = -1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := XeonE5_2603v3()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := XeonE5_2603v3().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if err := EC2DedicatedHost().Validate(); err != nil {
		t.Errorf("EC2 config rejected: %v", err)
	}
}

func TestAddVMValidation(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM(VM{ID: "", Package: 0}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := h.AddVM(VM{ID: "a", Package: 5}); err == nil {
		t.Error("out-of-range package accepted")
	}
	if _, err := h.AddVM(VM{ID: "a", Package: 0}); err != nil {
		t.Fatalf("valid VM rejected: %v", err)
	}
	if _, err := h.AddVM(VM{ID: "a", Package: 1}); err == nil {
		t.Error("duplicate ID accepted")
	}
	// Fill package 0 (one slot used already).
	for i := 1; i < 6; i++ {
		if _, err := h.AddVM(VM{ID: fmt.Sprintf("p0-%d", i), Package: 0}); err != nil {
			t.Fatalf("filling package 0: %v", err)
		}
	}
	if _, err := h.AddVM(VM{ID: "overflow", Package: 0}); err == nil {
		t.Error("over-packed package accepted")
	}
	// Host-wide capacity: 12 cores total, 6 used.
	for i := 0; i < 6; i++ {
		if _, err := h.AddVM(VM{ID: fmt.Sprintf("f-%d", i), Package: FloatingPackage}); err != nil {
			t.Fatalf("adding floating VM %d: %v", i, err)
		}
	}
	if _, err := h.AddVM(VM{ID: "too-many", Package: FloatingPackage}); err == nil {
		t.Error("host over capacity accepted")
	}
}

func TestFinding1SingleVMDoesNotSaturateBus(t *testing.T) {
	cfg := XeonE5_2603v3()
	p, err := Profile(ProfileSpec{Host: cfg, VMs: 1, Placement: PlacementSamePackage, Kind: AttackBusSaturation})
	if err != nil {
		t.Fatal(err)
	}
	if p.PerVMMBps >= cfg.BusBandwidthMBps {
		t.Errorf("one VM pulled %v MB/s, bus capacity %v: should not saturate", p.PerVMMBps, cfg.BusBandwidthMBps)
	}
	if p.PerVMMBps != cfg.SingleCoreDemandMBps {
		t.Errorf("one VM alone should get its full core demand %v, got %v", cfg.SingleCoreDemandMBps, p.PerVMMBps)
	}
}

func TestFinding2PerVMBandwidthDecreases(t *testing.T) {
	cfg := XeonE5_2603v3()
	for _, placement := range []PlacementMode{PlacementSamePackage, PlacementRandomPackage} {
		sweep, err := Sweep(ProfileSpec{Host: cfg, VMs: 6, Placement: placement, Kind: AttackBusSaturation})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(sweep); i++ {
			if sweep[i].PerVMMBps > sweep[i-1].PerVMMBps {
				t.Errorf("%v: per-VM bandwidth increased from %d to %d VMs (%v -> %v)",
					placement, i, i+1, sweep[i-1].PerVMMBps, sweep[i].PerVMMBps)
			}
		}
		if sweep[5].PerVMMBps >= sweep[0].PerVMMBps {
			t.Errorf("%v: no net degradation across sweep", placement)
		}
	}
}

func TestFinding2RandomPackageDegradesLess(t *testing.T) {
	cfg := XeonE5_2603v3()
	same, err := Sweep(ProfileSpec{Host: cfg, VMs: 6, Placement: PlacementSamePackage, Kind: AttackBusSaturation})
	if err != nil {
		t.Fatal(err)
	}
	random, err := Sweep(ProfileSpec{Host: cfg, VMs: 6, Placement: PlacementRandomPackage, Kind: AttackBusSaturation})
	if err != nil {
		t.Fatal(err)
	}
	// With enough sharers to exceed one package's bus, floating over two
	// packages must leave each VM more bandwidth.
	for k := 3; k <= 6; k++ {
		if random[k-1].PerVMMBps <= same[k-1].PerVMMBps {
			t.Errorf("at %d VMs random-package (%v) not above same-package (%v)",
				k, random[k-1].PerVMMBps, same[k-1].PerVMMBps)
		}
	}
}

func TestFinding3LockBeatsSaturation(t *testing.T) {
	cfg := XeonE5_2603v3()
	for k := 1; k <= 6; k++ {
		sat, err := Profile(ProfileSpec{Host: cfg, VMs: k, Placement: PlacementSamePackage, Kind: AttackBusSaturation})
		if err != nil {
			t.Fatal(err)
		}
		lock, err := Profile(ProfileSpec{Host: cfg, VMs: k, Placement: PlacementSamePackage, Kind: AttackMemoryLock, LockDuty: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		if lock.PerVMMBps >= sat.PerVMMBps {
			t.Errorf("at %d VMs lock attack (%v MB/s) not more effective than saturation (%v MB/s)",
				k, lock.PerVMMBps, sat.PerVMMBps)
		}
	}
}

// TestProfileSweepAndHosts: a sweep profiles 1..VMs co-located VMs, one
// point each, and the EC2 dedicated host has more bus bandwidth than the
// private-cloud Xeon.
func TestProfileSweepAndHosts(t *testing.T) {
	cfg := XeonE5_2603v3()
	sweep, err := Sweep(ProfileSpec{Host: cfg, VMs: 4, Placement: PlacementRandomPackage, Kind: AttackBusSaturation})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 4 {
		t.Fatalf("sweep points = %d, want 4", len(sweep))
	}
	for i, p := range sweep {
		if p.VMs != i+1 || p.PerVMMBps <= 0 {
			t.Errorf("sweep point %d: %+v", i, p)
		}
	}
	if ec2 := EC2DedicatedHost(); ec2.BusBandwidthMBps <= cfg.BusBandwidthMBps {
		t.Errorf("EC2 bus %v MB/s not above the private host's %v", ec2.BusBandwidthMBps, cfg.BusBandwidthMBps)
	}
}

func TestAllocateMaxMinFairness(t *testing.T) {
	cfg := XeonE5_2603v3()
	cfg.ContentionOverhead = 0
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One small demand and two large demands on the same bus.
	mustAdd(t, h, VM{ID: "small", Package: 0, Workload: WorkloadVictim, DemandMBps: 1000})
	mustAdd(t, h, VM{ID: "big1", Package: 0, Workload: WorkloadStream, DemandMBps: 9000})
	mustAdd(t, h, VM{ID: "big2", Package: 0, Workload: WorkloadStream, DemandMBps: 9000})
	alloc := h.Allocate()
	if got := alloc["small"]; got != 1000 {
		t.Errorf("small demand got %v, want fully satisfied 1000", got)
	}
	// Remaining 16000 split evenly between the two big demands.
	if alloc["big1"] != alloc["big2"] {
		t.Errorf("equal demands got unequal shares: %v vs %v", alloc["big1"], alloc["big2"])
	}
	if got := alloc["big1"]; got != 8000 {
		t.Errorf("big demand got %v, want 8000", got)
	}
}

func TestAllocateConservation(t *testing.T) {
	f := func(demands []uint16) bool {
		cfg := XeonE5_2603v3()
		h, err := NewHost(cfg)
		if err != nil {
			return false
		}
		n := len(demands)
		if n > cfg.CoresPerPackage {
			n = cfg.CoresPerPackage
		}
		for i := 0; i < n; i++ {
			d := float64(demands[i])
			if _, err := h.AddVM(VM{ID: fmt.Sprintf("vm%d", i), Package: 0, Workload: WorkloadStream, DemandMBps: d}); err != nil {
				return false
			}
		}
		alloc := h.Allocate()
		total := 0.0
		for i := 0; i < n; i++ {
			bw := alloc[fmt.Sprintf("vm%d", i)]
			if bw < 0 {
				return false
			}
			d := float64(demands[i])
			if d > cfg.SingleCoreDemandMBps {
				d = cfg.SingleCoreDemandMBps
			}
			if bw > d+1e-9 {
				return false // never grant above demand
			}
			total += bw
		}
		return total <= cfg.BusBandwidthMBps+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLockSeverityCapsAtOne(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, h, VM{ID: "l1", Package: 0, Workload: WorkloadLock, LockDuty: 0.8})
	mustAdd(t, h, VM{ID: "l2", Package: 0, Workload: WorkloadLock, LockDuty: 0.8})
	mustAdd(t, h, VM{ID: "victim", Package: 0, Workload: WorkloadVictim, DemandMBps: 3000})
	victim, severity := h.VMAllocation("victim")
	if severity != 1 {
		t.Errorf("lock severity = %v, want capped 1", severity)
	}
	if victim <= 0 {
		t.Errorf("victim bandwidth %v, want positive floor", victim)
	}
}

func TestSetWorkloadTogglesAllocation(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, h, VM{ID: "victim", Package: 0, Workload: WorkloadVictim, DemandMBps: 3000})
	mustAdd(t, h, VM{ID: "adv", Package: 0, Workload: WorkloadIdle})

	before, _ := h.VMAllocation("victim")
	if before != 3000 {
		t.Fatalf("victim alone should be satisfied, got %v", before)
	}
	if err := h.SetWorkload("adv", WorkloadLock, 0, 1.0); err != nil {
		t.Fatal(err)
	}
	during, _ := h.VMAllocation("victim")
	if during >= before {
		t.Errorf("lock attack did not reduce victim bandwidth: %v -> %v", before, during)
	}
	if err := h.SetWorkload("adv", WorkloadIdle, 0, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := h.VMAllocation("victim")
	if after != before {
		t.Errorf("bandwidth did not recover after attack: %v vs %v", after, before)
	}
}

func TestSetWorkloadUnknownVM(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetWorkload("ghost", WorkloadLock, 0, 1); err == nil {
		t.Error("unknown VM accepted")
	}
	if _, err := h.LLCMissRate("ghost"); err == nil {
		t.Error("unknown VM accepted in LLCMissRate")
	}
}

func mustAdd(t *testing.T, h *Host, vm VM) *VM {
	t.Helper()
	v, err := h.AddVM(vm)
	if err != nil {
		t.Fatalf("AddVM(%q): %v", vm.ID, err)
	}
	return v
}
