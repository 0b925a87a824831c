package memca_test

import (
	"fmt"
	"time"

	"memca"
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

// ExamplePlanAttack inverts the model: the weakest attack meeting the
// paper's damage goal under the stealth bound.
func ExamplePlanAttack() {
	m := memca.RUBBoSModel()
	goal := memca.PlanGoal{MinImpact: 0.05, MaxMillibottleneck: time.Second}
	a, err := memca.PlanAttack(m, goal, 2*time.Second)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("D=%.2f L=%v I=%v\n", a.D, a.L.Round(time.Millisecond), a.I)
	// Output:
	// D=0.31 L=884ms I=2s
}

// ExampleProfile reproduces one point of the Section III profiling: six
// co-located VMs on one package under a full-duty memory lock.
func ExampleProfile() {
	cfg := memca.XeonE5_2603v3()
	point, err := memca.Profile(memca.ProfileSpec{
		Host:      cfg,
		VMs:       6,
		Placement: memca.PlacementSamePackage,
		Kind:      memca.AttackMemoryLock,
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

// ExamplePlanSizing inverts the capacity question: instead of predicting
// damage for a given system, find the cheapest RUBBoS sizing that holds
// the SLO even under the worst stealthy burst train the analytical model
// can construct against it.
func ExamplePlanSizing() {
	res, err := memca.PlanSizing(memca.PlanRequest{
		System:  memca.RUBBoSSpec(),
		Traffic: memca.RUBBoSTrafficSpec(),
		SLO:     memca.DefaultSLO(),
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

// ExampleConfig_FromSpec builds a simulation config from the shared spec
// vocabulary, so the planner, the simulator, and the live victim chain
// all describe a system the same way.
func ExampleConfig_FromSpec() {
	sys, err := memca.RUBBoSSpec().WithReplicas([]int{2, 2, 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg, err := memca.DefaultConfig().FromSpec(sys, memca.RUBBoSTrafficSpec())
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
