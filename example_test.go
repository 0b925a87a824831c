package memca_test

import (
	"fmt"
	"time"

	"memca"
	"memca/internal/spec"
)

// ExamplePredictAttack evaluates the paper's Equations (2)-(10) for the
// default RUBBoS model under a strong burst.
func ExamplePredictAttack() {
	m := memca.RUBBoSModel()
	pred, err := memca.PredictAttack(m, memca.ModelAttack{
		D: 0.1, L: 500 * time.Millisecond, I: 2 * time.Second,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("build-up: %v\n", pred.TotalFill.Round(time.Millisecond))
	fmt.Printf("damage period: %v\n", pred.DamagePeriod.Round(time.Millisecond))
	fmt.Printf("millibottleneck: %v\n", pred.Millibottleneck.Round(time.Millisecond))
	fmt.Printf("impact rho: %.3f\n", pred.Impact)
	// Output:
	// build-up: 293ms
	// damage period: 207ms
	// millibottleneck: 544ms
	// impact rho: 0.104
}

// ExampleConfig_FromSpec builds a simulation config from the shared spec
// vocabulary, so the planner, the simulator, and the live victim chain
// all describe a system the same way.
func ExampleConfig_FromSpec() {
	sys, err := spec.RUBBoSSystem().WithReplicas([]int{2, 2, 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg, err := memca.DefaultConfig().FromSpec(sys, spec.RUBBoSTraffic())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, tier := range cfg.Tiers {
		fmt.Printf("%s: %d threads, %d servers\n", tier.Name, tier.QueueLimit, tier.Servers)
	}
	// Output:
	// apache: 200 threads, 4 servers
	// tomcat: 120 threads, 4 servers
	// mysql: 75 threads, 6 servers
}

// ExampleNewExperiment runs a miniature attacked experiment end to end.
func ExampleNewExperiment() {
	cfg := memca.DefaultConfig()
	cfg.Duration = 30 * time.Second
	cfg.Warmup = 5 * time.Second
	cfg.Clients = 700
	cfg.ThinkTime = 1400 * time.Millisecond

	x, err := memca.NewExperiment(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("attack: %s\n", rep.AttackKind)
	fmt.Printf("goal met: %v\n", rep.GoalMet)
	fmt.Printf("drops observed: %v\n", rep.Drops > 0)
	// Output:
	// attack: memory-lock
	// goal met: true
	// drops observed: true
}
