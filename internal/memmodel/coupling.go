package memmodel

import "fmt"

// VictimProfile characterizes how sensitive a victim application's
// throughput is to memory-bandwidth loss. The model splits each unit of
// work into a compute part and a memory part; the memory part stretches in
// proportion to the bandwidth shortfall, and bus-lock duty stalls
// everything while the lock is held.
type VictimProfile struct {
	// StallFraction is the fraction of service time spent waiting on
	// memory at full bandwidth (0 = pure compute, 1 = pure memory).
	StallFraction float64
	// DemandMBps is the bandwidth the victim needs to run at full speed.
	DemandMBps float64
}

// Validate reports the first profile error, or nil.
func (p VictimProfile) Validate() error {
	if p.StallFraction < 0 || p.StallFraction >= 1 {
		return fmt.Errorf("memmodel: StallFraction must be in [0,1), got %v", p.StallFraction)
	}
	if p.DemandMBps <= 0 {
		return fmt.Errorf("memmodel: DemandMBps must be positive, got %v", p.DemandMBps)
	}
	return nil
}

// MySQLProfile returns a representative profile for the paper's victim: a
// database whose working set misses the LLC often enough that about half
// of its service time is memory stalls.
func MySQLProfile() VictimProfile {
	return VictimProfile{StallFraction: 0.5, DemandMBps: 3000}
}

// CapacityMultiplier returns the victim's effective capacity as a fraction
// of its unconstrained capacity, given the bandwidth available to it and
// the system-wide bus-lock severity. This is the paper's degradation index
// D seen from the mechanism side: Equation (3)'s C_ON = D * C_OFF.
//
// With available bandwidth b and demand d, the memory portion of each unit
// of work inflates by d/b, so
//
//	slowdown = (1 - s) + s * max(1, d/b)
//
// and a bus lock additionally freezes all memory traffic for lockSeverity
// of the time:
//
//	D = (1 - lockSeverity*s) / slowdown, clamped to (0, 1].
//
// A zero available bandwidth with positive demand yields the configured
// floor rather than 0, because in reality locks release and schedulers
// make some progress; the floor keeps queueing-model service rates finite.
func CapacityMultiplier(p VictimProfile, availMBps, lockSeverity float64) float64 {
	const floor = 0.02
	if err := p.Validate(); err != nil {
		return 1 // invalid profiles mean "no victim modelled"
	}
	if lockSeverity < 0 {
		lockSeverity = 0
	}
	if lockSeverity > 1 {
		lockSeverity = 1
	}
	stretch := 1.0
	if availMBps <= 0 {
		stretch = 1 / floor
	} else if p.DemandMBps > availMBps {
		stretch = p.DemandMBps / availMBps
	}
	slowdown := (1 - p.StallFraction) + p.StallFraction*stretch
	d := (1 - lockSeverity*p.StallFraction) / slowdown
	if d < floor {
		d = floor
	}
	if d > 1 {
		d = 1
	}
	return d
}
