package memmodel_test

import (
	"fmt"

	"memca/internal/memmodel"
)

// ExampleProfile reproduces one point of the Section III profiling: six
// co-located VMs on one package under a full-duty memory lock.
func ExampleProfile() {
	cfg := memmodel.XeonE5_2603v3()
	point, err := memmodel.Profile(memmodel.ProfileSpec{
		Host:      cfg,
		VMs:       6,
		Placement: memmodel.PlacementSamePackage,
		Kind:      memmodel.AttackMemoryLock,
		LockDuty:  1.0,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("per-VM bandwidth: %.0f MB/s\n", point.PerVMMBps)
	// Output:
	// per-VM bandwidth: 145 MB/s
}
