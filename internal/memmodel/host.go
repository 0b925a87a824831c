// Package memmodel models the shared on-chip memory subsystem of a
// multi-package cloud host: per-package memory bus bandwidth, last-level
// cache, VM placement, and the two memory-attack programs the paper
// measures (bus saturation and exotic-atomic memory locking).
//
// The model answers two questions the rest of the reproduction depends on:
//
//  1. How much memory bandwidth is available to each co-located VM under a
//     given mix of workloads? (Figure 3)
//  2. How does a victim VM's effective CPU capacity degrade when its
//     available bandwidth shrinks? (the cross-resource coupling that turns a
//     memory attack into transient CPU saturation — the "CA" in MemCA)
//
// It also emits last-level-cache miss rates per VM, which back the
// OProfile-style detection experiment (Figure 11).
package memmodel

import (
	"cmp"
	"fmt"
	"slices"
)

// Workload identifies what a VM is currently running, from the memory
// subsystem's point of view.
type Workload int

// Workload values.
const (
	// WorkloadIdle consumes no memory bandwidth.
	WorkloadIdle Workload = iota + 1
	// WorkloadStream runs a RAMspeed-style sequential scan that pulls as
	// much bandwidth as the core can sustain. Both the bandwidth
	// measurement program and the bus-saturation attack use this.
	WorkloadStream
	// WorkloadLock runs the exotic-atomic locking attack: unaligned atomic
	// operations spanning two cache lines assert a bus lock that blocks
	// all other memory traffic for its duration.
	WorkloadLock
	// WorkloadVictim runs an application (e.g. MySQL) with a moderate,
	// latency-critical memory demand.
	WorkloadVictim
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case WorkloadIdle:
		return "idle"
	case WorkloadStream:
		return "stream"
	case WorkloadLock:
		return "lock"
	case WorkloadVictim:
		return "victim"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// FloatingPackage marks a VM that is not pinned and floats over all
// packages (the common cloud scheduling practice).
const FloatingPackage = -1

// HostConfig describes the memory subsystem of one physical host.
type HostConfig struct {
	// Packages is the number of processor packages (sockets).
	Packages int
	// CoresPerPackage bounds how many single-vCPU VMs a package hosts.
	CoresPerPackage int
	// BusBandwidthMBps is the measured per-package memory bus capacity in
	// MB/s (aggregate across channels, as a streaming benchmark sees it).
	BusBandwidthMBps float64
	// SingleCoreDemandMBps is the maximum bandwidth one core can pull,
	// which is below the package bus capacity on modern parts (paper
	// finding 1: one VM cannot saturate the bus).
	SingleCoreDemandMBps float64
	// ContentionOverhead is the fractional capacity loss per additional
	// active VM sharing a bus, modelling scheduler/row-buffer interference.
	ContentionOverhead float64
	// NUMAEfficiency scales pooled cross-package capacity for floating
	// VMs (remote accesses are slower than local ones).
	NUMAEfficiency float64
	// LockBandwidthFraction is the fraction of bus capacity that remains
	// available to other VMs while a locking attack runs at 100% duty.
	// Split-lock bus locks are system-wide, so this applies across
	// packages.
	LockBandwidthFraction float64
	// VictimBaselineMissRate is the victim application's LLC miss rate
	// (misses/s) when running alone.
	VictimBaselineMissRate float64
	// StreamMissRate is an attacker's own LLC miss rate while streaming
	// (roughly demand / cache-line size).
	StreamMissRate float64
	// LockMissRate is an attacker's own LLC miss rate while locking
	// (negligible: the working set is two cache lines).
	LockMissRate float64
	// EvictionPressure is the multiplier applied to a victim's baseline
	// miss rate per co-located streaming VM on the same package, modelling
	// LLC cleansing.
	EvictionPressure float64
}

// Validate reports the first configuration error, or nil.
func (c HostConfig) Validate() error {
	switch {
	case c.Packages <= 0:
		return fmt.Errorf("memmodel: Packages must be positive, got %d", c.Packages)
	case c.CoresPerPackage <= 0:
		return fmt.Errorf("memmodel: CoresPerPackage must be positive, got %d", c.CoresPerPackage)
	case c.BusBandwidthMBps <= 0:
		return fmt.Errorf("memmodel: BusBandwidthMBps must be positive, got %v", c.BusBandwidthMBps)
	case c.SingleCoreDemandMBps <= 0:
		return fmt.Errorf("memmodel: SingleCoreDemandMBps must be positive, got %v", c.SingleCoreDemandMBps)
	case c.ContentionOverhead < 0 || c.ContentionOverhead >= 1:
		return fmt.Errorf("memmodel: ContentionOverhead must be in [0,1), got %v", c.ContentionOverhead)
	case c.NUMAEfficiency <= 0 || c.NUMAEfficiency > 1:
		return fmt.Errorf("memmodel: NUMAEfficiency must be in (0,1], got %v", c.NUMAEfficiency)
	case c.LockBandwidthFraction <= 0 || c.LockBandwidthFraction > 1:
		return fmt.Errorf("memmodel: LockBandwidthFraction must be in (0,1], got %v", c.LockBandwidthFraction)
	case c.EvictionPressure < 0:
		return fmt.Errorf("memmodel: EvictionPressure must be non-negative, got %v", c.EvictionPressure)
	}
	return nil
}

// XeonE5_2603v3 returns the paper's private-cloud host: a 2-package,
// 6-core-per-package Intel Xeon E5-2603 v3 with 15 MB LLC per package.
// Bandwidth figures are representative streaming-benchmark values for that
// part (DDR4-1600, 4 channels), not theoretical maxima.
func XeonE5_2603v3() HostConfig {
	return HostConfig{
		Packages:               2,
		CoresPerPackage:        6,
		BusBandwidthMBps:       17000,
		SingleCoreDemandMBps:   9000,
		ContentionOverhead:     0.03,
		NUMAEfficiency:         0.85,
		LockBandwidthFraction:  0.06,
		VictimBaselineMissRate: 2e5,
		StreamMissRate:         1.4e8,
		LockMissRate:           2e3,
		EvictionPressure:       0.9,
	}
}

// EC2DedicatedHost returns a model of the paper's EC2 dedicated node (two
// ten-core Xeon E5-2680, 64 GB): more cores and more bandwidth per package,
// same sharing behaviour.
func EC2DedicatedHost() HostConfig {
	cfg := XeonE5_2603v3()
	cfg.CoresPerPackage = 10
	cfg.BusBandwidthMBps = 25000
	cfg.SingleCoreDemandMBps = 11000
	return cfg
}

// VM is one virtual machine placed on the host. Fields are mutated through
// Host methods so the host can keep derived state consistent.
type VM struct {
	// ID is the caller-chosen unique identifier.
	ID string
	// Package is the package index the VM is pinned to, or
	// FloatingPackage.
	Package int
	// Workload is what the VM currently runs.
	Workload Workload
	// DemandMBps is the bandwidth the VM would consume unconstrained.
	// Ignored for WorkloadIdle and WorkloadLock.
	DemandMBps float64
	// LockDuty is the fraction of time the bus lock is held while
	// Workload == WorkloadLock (1 = continuous locking).
	LockDuty float64
}

// Host is a physical machine with a set of co-located VMs. Methods are not
// safe for concurrent use; the simulator is single-threaded.
type Host struct {
	cfg HostConfig
	vms []*VM

	// reservations maps VM ID to a guaranteed bandwidth floor (MB/s);
	// see ReserveBandwidth.
	reservations map[string]float64
	// splitLockProtection traps bus locks; see SetSplitLockProtection.
	splitLockProtection bool

	// Scratch reused across allocate calls so the burst-transition path
	// (attack.MemoryInjector -> VMAllocation) performs no steady-state
	// allocations. Methods are single-threaded (see type comment), so one
	// set per host suffices.
	perVMScratch  map[string]float64
	pinnedScratch [][]demander
	floatScratch  []demander
	sharedScratch []demander
}

// demander is one VM with positive effective bandwidth demand, grouped by
// sharing domain during allocation.
type demander struct {
	vm     *VM
	demand float64
}

// NewHost returns a host with the given configuration and no VMs.
func NewHost(cfg HostConfig) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Host{cfg: cfg}, nil
}

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

// AddVM places a VM on the host. It returns an error when the ID is
// duplicated, the package index is invalid, or the host is out of cores
// (each VM is single-vCPU, matching the paper's profiling setup).
func (h *Host) AddVM(vm VM) (*VM, error) {
	if vm.ID == "" {
		return nil, fmt.Errorf("memmodel: VM ID must not be empty")
	}
	if vm.Package != FloatingPackage && (vm.Package < 0 || vm.Package >= h.cfg.Packages) {
		return nil, fmt.Errorf("memmodel: package %d out of range [0,%d)", vm.Package, h.cfg.Packages)
	}
	if vm.Workload == 0 {
		vm.Workload = WorkloadIdle
	}
	if len(h.vms) >= h.cfg.Packages*h.cfg.CoresPerPackage {
		return nil, fmt.Errorf("memmodel: host is full (%d cores)", h.cfg.Packages*h.cfg.CoresPerPackage)
	}
	if vm.Package != FloatingPackage {
		onPkg := 0
		for _, v := range h.vms {
			if v.Package == vm.Package {
				onPkg++
			}
		}
		if onPkg >= h.cfg.CoresPerPackage {
			return nil, fmt.Errorf("memmodel: package %d is full (%d cores)", vm.Package, h.cfg.CoresPerPackage)
		}
	}
	for _, v := range h.vms {
		if v.ID == vm.ID {
			return nil, fmt.Errorf("memmodel: duplicate VM ID %q", vm.ID)
		}
	}
	cp := vm
	h.vms = append(h.vms, &cp)
	return &cp, nil
}

// VM returns the VM with the given ID, or an error when absent.
func (h *Host) VM(id string) (*VM, error) {
	for _, v := range h.vms {
		if v.ID == id {
			return v, nil
		}
	}
	return nil, fmt.Errorf("memmodel: no VM %q on host", id)
}

// SetWorkload switches a VM's workload, e.g. when an attack burst starts or
// ends.
func (h *Host) SetWorkload(id string, w Workload, demandMBps, lockDuty float64) error {
	vm, err := h.VM(id)
	if err != nil {
		return err
	}
	vm.Workload = w
	vm.DemandMBps = demandMBps
	vm.LockDuty = lockDuty
	return nil
}

// lockSeverity returns the combined lock duty across all locking VMs,
// capped at 1. Bus locks from split atomics are system-wide — unless the
// host traps them (split-lock protection), in which case they never reach
// the bus.
func (h *Host) lockSeverity() float64 {
	if h.splitLockProtection {
		return 0
	}
	duty := 0.0
	for _, v := range h.vms {
		if v.Workload == WorkloadLock {
			duty += v.LockDuty
		}
	}
	if duty > 1 {
		duty = 1
	}
	return duty
}

// Allocate computes the bandwidth available to every VM, in MB/s by VM
// ID, under the current workload mix using max-min fair sharing of
// per-package (or pooled, for floating VMs) capacity, after subtracting
// lock-attack degradation and per-VM contention overhead. Idle and locking
// VMs get an entry of 0 and their own (tiny) demand respectively. The
// returned map is freshly allocated and owned by the caller; the
// burst-transition hot path uses VMAllocation instead.
func (h *Host) Allocate() map[string]float64 {
	perVM, _ := h.allocate()
	out := make(map[string]float64, len(perVM))
	for id, bw := range perVM {
		out[id] = bw
	}
	return out
}

// VMAllocation returns the bandwidth available to one VM and the
// system-wide bus-lock duty in effect without materializing Allocate's
// map. A missing ID yields 0 bandwidth, matching an absent entry of that
// map. Attack burst transitions call this on every flank, so it reuses
// host-owned scratch and performs no steady-state allocations.
//
//memca:hotpath
func (h *Host) VMAllocation(id string) (bandwidthMBps, lockSeverity float64) {
	perVM, severity := h.allocate()
	return perVM[id], severity
}

// allocate computes the current allocation into the host's scratch map,
// which stays valid until the next allocate call.
func (h *Host) allocate() (map[string]float64, float64) {
	if h.perVMScratch == nil {
		h.perVMScratch = make(map[string]float64, len(h.vms))
	}
	clear(h.perVMScratch)
	if len(h.pinnedScratch) < h.cfg.Packages {
		h.pinnedScratch = make([][]demander, h.cfg.Packages)
	}
	for i := range h.pinnedScratch {
		h.pinnedScratch[i] = h.pinnedScratch[i][:0]
	}
	h.floatScratch = h.floatScratch[:0]

	perVM := h.perVMScratch
	severity := h.lockSeverity()

	// System-wide factor from bus locking.
	lockFactor := 1 - severity*(1-h.cfg.LockBandwidthFraction)

	// Group demanding VMs by domain: one domain per package for pinned
	// VMs, plus a pooled domain for floating VMs. Floating VMs share the
	// pooled capacity of all packages at NUMA efficiency, minus what the
	// pinned VMs consume.
	for _, v := range h.vms {
		var d float64
		switch v.Workload {
		case WorkloadStream, WorkloadVictim:
			d = v.DemandMBps
			if d > h.cfg.SingleCoreDemandMBps {
				d = h.cfg.SingleCoreDemandMBps
			}
		case WorkloadLock:
			perVM[v.ID] = 0 // a locker transfers almost nothing
			continue
		default:
			perVM[v.ID] = 0
			continue
		}
		if d <= 0 {
			perVM[v.ID] = 0
			continue
		}
		if v.Package == FloatingPackage {
			h.floatScratch = append(h.floatScratch, demander{vm: v, demand: d})
		} else {
			h.pinnedScratch[v.Package] = append(h.pinnedScratch[v.Package], demander{vm: v, demand: d})
		}
	}

	pinnedUse := 0.0
	for pkg := 0; pkg < h.cfg.Packages; pkg++ {
		h.fairShare(perVM, lockFactor, h.cfg.BusBandwidthMBps, h.pinnedScratch[pkg])
		// Sum in the original placement order (fairShare sorts only its
		// own copy), keeping the float accumulation byte-stable.
		for _, d := range h.pinnedScratch[pkg] {
			pinnedUse += perVM[d.vm.ID]
		}
	}
	pooled := float64(h.cfg.Packages)*h.cfg.BusBandwidthMBps*h.cfg.NUMAEfficiency - pinnedUse
	if pooled < 0 {
		pooled = 0
	}
	h.fairShare(perVM, lockFactor, pooled, h.floatScratch)
	return perVM, severity
}

// fairShare grants each demander its max-min fair share of capacity and
// records the grants into perVM. ds itself is left untouched: the
// demand-sorted working copy lives in the host's shared scratch.
func (h *Host) fairShare(perVM map[string]float64, lockFactor, capacity float64, ds []demander) {
	if len(ds) == 0 {
		return
	}
	// Reserved VMs take their dedicated partition off the top: the
	// partition is immune to contention overhead but not to bus
	// locks (hardware stalls sit below the partitioning layer).
	h.sharedScratch = h.sharedScratch[:0]
	for _, d := range ds {
		if r := h.reservations[d.vm.ID]; r > 0 {
			grant := d.demand
			if grant > r {
				grant = r
			}
			if grant > capacity {
				grant = capacity
			}
			perVM[d.vm.ID] = grant * lockFactor
			capacity -= grant
			continue
		}
		h.sharedScratch = append(h.sharedScratch, d)
	}
	ds = h.sharedScratch
	if len(ds) == 0 {
		return
	}
	// Contention overhead shrinks capacity as sharers increase.
	capacity *= 1 - h.cfg.ContentionOverhead*float64(len(ds)-1)
	if capacity < 0 {
		capacity = 0
	}
	// Max-min fair: satisfy the smallest demands first, then split
	// what is left evenly among the still-unsatisfied. The comparator is
	// a total order (IDs are unique), so any sort yields one sequence.
	slices.SortFunc(ds, func(a, b demander) int {
		if a.demand < b.demand {
			return -1
		}
		if b.demand < a.demand {
			return 1
		}
		return cmp.Compare(a.vm.ID, b.vm.ID)
	})
	remaining := capacity
	left := len(ds)
	for _, d := range ds {
		share := remaining / float64(left)
		grant := d.demand
		if grant > share {
			grant = share
		}
		perVM[d.vm.ID] = grant * lockFactor
		remaining -= grant
		left--
	}
}

// LLCMissRate returns the current LLC miss rate (misses/s) a profiler like
// OProfile would attribute to the given VM.
//
// A streaming VM misses at StreamMissRate by itself and additionally
// inflates same-package victims' miss rates through eviction pressure. A
// locking VM barely touches the cache: its attack is invisible to an
// LLC-miss profiler (the paper's Figure 11b).
func (h *Host) LLCMissRate(id string) (float64, error) {
	vm, err := h.VM(id)
	if err != nil {
		return 0, err
	}
	switch vm.Workload {
	case WorkloadStream:
		return h.cfg.StreamMissRate, nil
	case WorkloadLock:
		return h.cfg.LockMissRate, nil
	case WorkloadIdle:
		return 0, nil
	}
	// Victim: baseline plus eviction pressure from streaming neighbours
	// in the same cache domain (same package, or anywhere for floaters).
	rate := h.cfg.VictimBaselineMissRate
	for _, v := range h.vms {
		if v.ID == vm.ID || v.Workload != WorkloadStream {
			continue
		}
		samePackage := vm.Package == FloatingPackage || v.Package == FloatingPackage || v.Package == vm.Package
		if samePackage {
			rate += h.cfg.VictimBaselineMissRate * h.cfg.EvictionPressure
		}
	}
	return rate, nil
}
