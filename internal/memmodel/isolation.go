package memmodel

import "fmt"

// The isolation primitives below model the two defense families the
// paper's related-work section discusses (Heracles-style resource
// partitioning) and the split-lock mitigation modern kernels ship. They
// have an instructive asymmetry: bandwidth partitioning blunts the
// bus-saturation attack but cannot stop a split-lock attack (the lock
// stalls the bus below the partitioning layer), while split-lock
// protection neutralizes the lock attack specifically.

// ReserveBandwidth guarantees a VM a bandwidth floor (MB/s), as a memory-
// bandwidth-allocation (MBA) or Heracles-style partition would. During
// allocation the reservation is carved out of the VM's domain capacity
// before fair sharing; it does not protect against bus locks.
func (h *Host) ReserveBandwidth(id string, mbps float64) error {
	if _, err := h.VM(id); err != nil {
		return err
	}
	if mbps < 0 {
		return fmt.Errorf("memmodel: reservation must be non-negative, got %v", mbps)
	}
	if mbps > h.cfg.BusBandwidthMBps {
		return fmt.Errorf("memmodel: reservation %v exceeds bus capacity %v", mbps, h.cfg.BusBandwidthMBps)
	}
	if h.reservations == nil {
		h.reservations = make(map[string]float64)
	}
	if mbps == 0 {
		delete(h.reservations, id)
		return nil
	}
	h.reservations[id] = mbps
	return nil
}

// SetSplitLockProtection toggles the split-lock mitigation: when enabled,
// unaligned atomics that would assert a system-wide bus lock are trapped
// and emulated, so the locking VM's interference collapses (at the cost of
// the attacker's own throughput, which we do not need to model further).
func (h *Host) SetSplitLockProtection(enabled bool) {
	h.splitLockProtection = enabled
}
