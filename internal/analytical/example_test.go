package analytical_test

import (
	"fmt"
	"time"

	"memca/internal/analytical"
)

// ExamplePlanAttack inverts the model: the weakest attack meeting the
// paper's damage goal under the stealth bound.
func ExamplePlanAttack() {
	m := analytical.RUBBoS3Tier()
	goal := analytical.Goal{MinImpact: 0.05, MaxMillibottleneck: time.Second}
	a, err := analytical.PlanAttack(m, goal, 2*time.Second)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("D=%.2f L=%v I=%v\n", a.D, a.L.Round(time.Millisecond), a.I)
	// Output:
	// D=0.31 L=884ms I=2s
}
