package plan_test

import (
	"fmt"

	"memca/internal/plan"
	"memca/internal/spec"
)

// ExampleSolve inverts the capacity question: instead of predicting
// damage for a given system, find the cheapest RUBBoS sizing that holds
// the SLO even under the worst stealthy burst train the analytical model
// can construct against it.
func ExampleSolve() {
	res, err := plan.Solve(plan.Request{
		System:  spec.RUBBoSSystem(),
		Traffic: spec.RUBBoSTraffic(),
		SLO:     spec.DefaultSLO(),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("replicas: %v, thread scale: x%d\n", res.Sizing.Replicas, res.Sizing.ThreadScale)
	fmt.Printf("servers: %d\n", res.Sizing.Cost.Servers)
	fmt.Printf("survives worst-case burst train: %v\n", res.Assessment.OKOn)
	// Output:
	// replicas: [1 1 1], thread scale: x4
	// servers: 6
	// survives worst-case burst train: true
}
