package memmodel

import (
	"testing"
	"testing/quick"
)

func TestCapacityMultiplierFullBandwidth(t *testing.T) {
	p := MySQLProfile()
	if d := CapacityMultiplier(p, p.DemandMBps, 0); d != 1 {
		t.Errorf("full bandwidth D = %v, want 1", d)
	}
	if d := CapacityMultiplier(p, p.DemandMBps*10, 0); d != 1 {
		t.Errorf("surplus bandwidth D = %v, want 1", d)
	}
}

func TestCapacityMultiplierDegradesWithBandwidth(t *testing.T) {
	p := MySQLProfile()
	prev := 1.0
	for _, frac := range []float64{0.8, 0.5, 0.25, 0.1, 0.05} {
		d := CapacityMultiplier(p, p.DemandMBps*frac, 0)
		if d >= prev {
			t.Errorf("D did not decrease at bandwidth fraction %v: %v >= %v", frac, d, prev)
		}
		if d <= 0 || d > 1 {
			t.Errorf("D out of range at fraction %v: %v", frac, d)
		}
		prev = d
	}
}

func TestCapacityMultiplierLockSeverity(t *testing.T) {
	p := MySQLProfile()
	noLock := CapacityMultiplier(p, p.DemandMBps/4, 0)
	withLock := CapacityMultiplier(p, p.DemandMBps/4, 1)
	if withLock >= noLock {
		t.Errorf("lock severity did not worsen degradation: %v vs %v", withLock, noLock)
	}
}

func TestCapacityMultiplierZeroBandwidthFloor(t *testing.T) {
	p := MySQLProfile()
	d := CapacityMultiplier(p, 0, 1)
	if d <= 0 {
		t.Errorf("D = %v, want positive floor", d)
	}
	if d > 0.1 {
		t.Errorf("D = %v under total starvation, want near floor", d)
	}
}

func TestCapacityMultiplierPureComputeImmune(t *testing.T) {
	p := VictimProfile{StallFraction: 0, DemandMBps: 100}
	if d := CapacityMultiplier(p, 1, 0); d != 1 {
		t.Errorf("pure-compute victim degraded to %v under bandwidth loss", d)
	}
	// But a bus lock still cannot hurt a workload that never touches
	// memory in this model.
	if d := CapacityMultiplier(p, 1, 1); d != 1 {
		t.Errorf("pure-compute victim degraded to %v under lock", d)
	}
}

func TestCapacityMultiplierBoundsProperty(t *testing.T) {
	f := func(stallRaw, demandRaw, availRaw, lockRaw uint16) bool {
		p := VictimProfile{
			StallFraction: float64(stallRaw%1000) / 1001, // in [0,1)
			DemandMBps:    float64(demandRaw%20000) + 1,
		}
		avail := float64(availRaw % 30000)
		lock := float64(lockRaw%1000) / 999
		d := CapacityMultiplier(p, avail, lock)
		return d > 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCapacityMultiplierMonotoneInBandwidth(t *testing.T) {
	f := func(availA, availB uint16) bool {
		p := MySQLProfile()
		a, b := float64(availA), float64(availB)
		if a > b {
			a, b = b, a
		}
		return CapacityMultiplier(p, a, 0.5) <= CapacityMultiplier(p, b, 0.5)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestVictimProfileValidate(t *testing.T) {
	if err := MySQLProfile().Validate(); err != nil {
		t.Errorf("MySQL profile rejected: %v", err)
	}
	if err := (VictimProfile{StallFraction: 1, DemandMBps: 100}).Validate(); err == nil {
		t.Error("StallFraction 1 accepted")
	}
	if err := (VictimProfile{StallFraction: 0.5, DemandMBps: 0}).Validate(); err == nil {
		t.Error("zero demand accepted")
	}
}

func TestLLCMissRates(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	mustAdd(t, h, VM{ID: "victim", Package: 0, Workload: WorkloadVictim, DemandMBps: 3000})
	mustAdd(t, h, VM{ID: "adv", Package: 0, Workload: WorkloadIdle})

	base, err := h.LLCMissRate("victim")
	if err != nil {
		t.Fatal(err)
	}
	if base != cfg.VictimBaselineMissRate {
		t.Errorf("victim baseline misses = %v, want %v", base, cfg.VictimBaselineMissRate)
	}

	// Bus-saturation attack: attacker misses a lot, victim inflated.
	if err := h.SetWorkload("adv", WorkloadStream, cfg.SingleCoreDemandMBps, 0); err != nil {
		t.Fatal(err)
	}
	advMisses, err := h.LLCMissRate("adv")
	if err != nil {
		t.Fatal(err)
	}
	if advMisses != cfg.StreamMissRate {
		t.Errorf("streaming attacker misses = %v, want %v", advMisses, cfg.StreamMissRate)
	}
	victimDuringStream, err := h.LLCMissRate("victim")
	if err != nil {
		t.Fatal(err)
	}
	if victimDuringStream <= base {
		t.Errorf("stream attack did not inflate victim misses: %v vs %v", victimDuringStream, base)
	}

	// Memory-lock attack: near-invisible to an LLC profiler.
	if err := h.SetWorkload("adv", WorkloadLock, 0, 1); err != nil {
		t.Fatal(err)
	}
	lockMisses, err := h.LLCMissRate("adv")
	if err != nil {
		t.Fatal(err)
	}
	if lockMisses >= advMisses/1000 {
		t.Errorf("lock attacker misses %v not orders of magnitude below streaming %v", lockMisses, advMisses)
	}
	victimDuringLock, err := h.LLCMissRate("victim")
	if err != nil {
		t.Fatal(err)
	}
	if victimDuringLock != base {
		t.Errorf("lock attack changed victim miss rate: %v vs %v", victimDuringLock, base)
	}
}

func TestLLCMissRateCrossPackage(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	mustAdd(t, h, VM{ID: "victim", Package: 0, Workload: WorkloadVictim, DemandMBps: 3000})
	mustAdd(t, h, VM{ID: "adv", Package: 1, Workload: WorkloadStream, DemandMBps: cfg.SingleCoreDemandMBps})
	got, err := h.LLCMissRate("victim")
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg.VictimBaselineMissRate {
		t.Errorf("cross-package streamer inflated victim misses: %v vs %v", got, cfg.VictimBaselineMissRate)
	}
}

func TestProfileBandwidthErrors(t *testing.T) {
	spec := ProfileSpec{Host: XeonE5_2603v3(), Placement: PlacementSamePackage, Kind: AttackBusSaturation}
	if _, err := Profile(spec); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := Sweep(spec); err == nil {
		t.Error("zero max VMs accepted")
	}
	spec.VMs = 1
	spec.Host.Packages = 0
	if _, err := Profile(spec); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Sweep(spec); err == nil {
		t.Error("invalid config accepted by Sweep")
	}
}

func TestStringers(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{WorkloadIdle.String(), "idle"},
		{WorkloadStream.String(), "stream"},
		{WorkloadLock.String(), "lock"},
		{WorkloadVictim.String(), "victim"},
		{Workload(99).String(), "Workload(99)"},
		{AttackBusSaturation.String(), "bus-saturation"},
		{AttackMemoryLock.String(), "memory-lock"},
		{AttackKind(99).String(), "AttackKind(99)"},
		{PlacementSamePackage.String(), "same-package"},
		{PlacementRandomPackage.String(), "random-package"},
		{PlacementMode(99).String(), "PlacementMode(99)"},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}
