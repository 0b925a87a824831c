package memmodel

import "fmt"

// AttackKind selects which memory attack an adversary VM runs.
type AttackKind int

// Attack kinds.
const (
	// AttackBusSaturation streams through memory to saturate the bus.
	AttackBusSaturation AttackKind = iota + 1
	// AttackMemoryLock triggers bus locks with unaligned atomics.
	AttackMemoryLock
)

// String implements fmt.Stringer.
func (k AttackKind) String() string {
	switch k {
	case AttackBusSaturation:
		return "bus-saturation"
	case AttackMemoryLock:
		return "memory-lock"
	default:
		return fmt.Sprintf("AttackKind(%d)", int(k))
	}
}

// PlacementMode selects the VM placement of the Figure 3 profiling
// experiments.
type PlacementMode int

// Placement modes.
const (
	// PlacementSamePackage pins every VM to package 0.
	PlacementSamePackage PlacementMode = iota + 1
	// PlacementRandomPackage lets VMs float over all packages.
	PlacementRandomPackage
)

// String implements fmt.Stringer.
func (m PlacementMode) String() string {
	switch m {
	case PlacementSamePackage:
		return "same-package"
	case PlacementRandomPackage:
		return "random-package"
	default:
		return fmt.Sprintf("PlacementMode(%d)", int(m))
	}
}

// BandwidthPoint is one measurement of the Figure 3 sweep.
type BandwidthPoint struct {
	VMs       int           `json:"vms"`
	Placement PlacementMode `json:"placement"`
	Attack    AttackKind    `json:"attack"`
	// PerVMMBps is the bandwidth each measuring VM obtains.
	PerVMMBps float64 `json:"per_vm_mbps"`
	// AggregateMBps is the total across measuring VMs.
	AggregateMBps float64 `json:"aggregate_mbps"`
}

// ProfileSpec describes one bandwidth-profiling experiment: the host
// model, the number of measuring VMs, their placement, and the attack that
// runs alongside. It replaces the five-positional-argument profiling
// calls; a zero LockDuty with Kind == AttackMemoryLock means the adversary
// never locks, so callers normally want 1.0 there.
type ProfileSpec struct {
	// Host is the physical host's memory-subsystem model.
	Host HostConfig
	// VMs is the number of measuring VMs; for Sweep it is the maximum of
	// the 1..VMs curve.
	VMs int
	// Placement pins VMs to one package or lets them float.
	Placement PlacementMode
	// Kind selects the co-running attack program.
	Kind AttackKind
	// LockDuty is the bus-lock duty cycle in [0,1], used only by
	// AttackMemoryLock.
	LockDuty float64
}

// Profile reproduces the paper's Section III measurement: spec.VMs
// co-located VMs run a RAMspeed-style benchmark under the given placement,
// and the attack runs alongside. For AttackBusSaturation the measuring VMs
// themselves are the saturating load (as in the paper, where the benchmark
// doubles as the attack program); for AttackMemoryLock one extra adversary
// VM holds bus locks at the given duty cycle.
func Profile(spec ProfileSpec) (BandwidthPoint, error) {
	cfg, vms, placement, attack, lockDuty := spec.Host, spec.VMs, spec.Placement, spec.Kind, spec.LockDuty
	if vms <= 0 {
		return BandwidthPoint{}, fmt.Errorf("memmodel: need at least one measuring VM, got %d", vms)
	}
	h, err := NewHost(cfg)
	if err != nil {
		return BandwidthPoint{}, err
	}
	pkg := FloatingPackage
	if placement == PlacementSamePackage {
		pkg = 0
	}
	for i := 0; i < vms; i++ {
		_, err := h.AddVM(VM{
			ID:         fmt.Sprintf("meas-%d", i),
			Package:    pkg,
			Workload:   WorkloadStream,
			DemandMBps: cfg.SingleCoreDemandMBps,
		})
		if err != nil {
			return BandwidthPoint{}, fmt.Errorf("placing measuring VM %d: %w", i, err)
		}
	}
	if attack == AttackMemoryLock {
		// Bus locks are system-wide, so the adversary's placement does
		// not matter; float it so it never competes for a core slot with
		// the measuring VMs.
		if _, err := h.AddVM(VM{ID: "adversary", Package: FloatingPackage, Workload: WorkloadLock, LockDuty: lockDuty}); err != nil {
			return BandwidthPoint{}, fmt.Errorf("placing adversary VM: %w", err)
		}
	}
	alloc := h.Allocate()
	point := BandwidthPoint{VMs: vms, Placement: placement, Attack: attack}
	for i := 0; i < vms; i++ {
		bw := alloc[fmt.Sprintf("meas-%d", i)]
		point.AggregateMBps += bw
	}
	point.PerVMMBps = point.AggregateMBps / float64(vms)
	return point, nil
}

// Sweep runs Profile for 1..spec.VMs measuring VMs, producing one curve of
// Figure 3.
func Sweep(spec ProfileSpec) ([]BandwidthPoint, error) {
	if spec.VMs <= 0 {
		return nil, fmt.Errorf("memmodel: maxVMs must be positive, got %d", spec.VMs)
	}
	out := make([]BandwidthPoint, 0, spec.VMs)
	for k := 1; k <= spec.VMs; k++ {
		at := spec
		at.VMs = k
		p, err := Profile(at)
		if err != nil {
			return nil, fmt.Errorf("sweep at %d VMs: %w", k, err)
		}
		out = append(out, p)
	}
	return out, nil
}
