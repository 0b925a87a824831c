package memmodel

import "testing"

func isolationHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, h, VM{ID: "victim", Package: 0, Workload: WorkloadVictim, DemandMBps: 3000})
	mustAdd(t, h, VM{ID: "adv1", Package: 0, Workload: WorkloadIdle})
	mustAdd(t, h, VM{ID: "adv2", Package: 0, Workload: WorkloadIdle})
	return h
}

func TestReserveBandwidthValidation(t *testing.T) {
	h := isolationHost(t)
	if err := h.ReserveBandwidth("ghost", 1000); err == nil {
		t.Error("unknown VM accepted")
	}
	if err := h.ReserveBandwidth("victim", -1); err == nil {
		t.Error("negative reservation accepted")
	}
	if err := h.ReserveBandwidth("victim", 99999); err == nil {
		t.Error("reservation above bus capacity accepted")
	}
	if err := h.ReserveBandwidth("victim", 3000); err != nil {
		t.Fatalf("valid reservation rejected: %v", err)
	}
	if got := h.reservations["victim"]; got != 3000 {
		t.Errorf("reservation = %v, want 3000", got)
	}
	if err := h.ReserveBandwidth("victim", 0); err != nil {
		t.Fatalf("clearing reservation: %v", err)
	}
	if got, ok := h.reservations["victim"]; ok {
		t.Errorf("reservation not cleared: %v", got)
	}
}

func TestReservationProtectsAgainstSaturation(t *testing.T) {
	h := isolationHost(t)
	cfg := h.Config()
	// Fill the rest of the package with streamers.
	for _, id := range []string{"adv1", "adv2"} {
		if err := h.SetWorkload(id, WorkloadStream, cfg.SingleCoreDemandMBps, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		vm := mustAdd(t, h, VM{ID: string(rune('a' + i)), Package: 0})
		if err := h.SetWorkload(vm.ID, WorkloadStream, cfg.SingleCoreDemandMBps, 0); err != nil {
			t.Fatal(err)
		}
	}

	unprotected, _ := h.VMAllocation("victim")
	if unprotected >= 3000 {
		t.Fatalf("saturation should starve the unprotected victim, got %v", unprotected)
	}
	if err := h.ReserveBandwidth("victim", 3000); err != nil {
		t.Fatal(err)
	}
	protected, _ := h.VMAllocation("victim")
	if protected != 3000 {
		t.Errorf("reserved victim got %v, want full 3000", protected)
	}
}

func TestReservationDoesNotStopBusLocks(t *testing.T) {
	h := isolationHost(t)
	if err := h.ReserveBandwidth("victim", 3000); err != nil {
		t.Fatal(err)
	}
	if err := h.SetWorkload("adv1", WorkloadLock, 0, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := h.VMAllocation("victim")
	// The bus lock stalls the partition too: bandwidth collapses despite
	// the reservation.
	if got >= 3000*0.5 {
		t.Errorf("reservation blocked a bus lock: victim still gets %v", got)
	}
}

func TestSplitLockProtectionNeutralizesLockAttack(t *testing.T) {
	h := isolationHost(t)
	if err := h.SetWorkload("adv1", WorkloadLock, 0, 1); err != nil {
		t.Fatal(err)
	}
	before, _ := h.VMAllocation("victim")
	if before >= 3000 {
		t.Fatalf("lock attack ineffective even unprotected: %v", before)
	}
	h.SetSplitLockProtection(true)
	after, _ := h.VMAllocation("victim")
	if after != 3000 {
		t.Errorf("protected victim got %v, want full 3000", after)
	}
	alloc := h.Allocate()
	if alloc.LockSeverity != 0 {
		t.Errorf("lock severity %v under protection, want 0", alloc.LockSeverity)
	}
}

func TestSplitLockProtectionLeavesSaturationAlone(t *testing.T) {
	// Split-lock protection is lock-specific: saturation pressure remains.
	h := isolationHost(t)
	h.SetSplitLockProtection(true)
	cfg := h.Config()
	for _, id := range []string{"adv1", "adv2"} {
		if err := h.SetWorkload(id, WorkloadStream, cfg.SingleCoreDemandMBps, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		vm := mustAdd(t, h, VM{ID: string(rune('a' + i)), Package: 0})
		if err := h.SetWorkload(vm.ID, WorkloadStream, cfg.SingleCoreDemandMBps, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := h.VMAllocation("victim")
	if got >= 3000 {
		t.Errorf("saturation should still bite under split-lock protection, got %v", got)
	}
}
