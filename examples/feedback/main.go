// Feedback: the MemCA-BE control loop in action. The attacker starts with
// deliberately weak parameters and no knowledge of the target system; the
// Kalman-filtered commander probes the tail, escalates intensity, burst
// length and burst density in turn, and converges on the damage goal
// (p95 > 1 s) while honoring the stealth bound (millibottleneck < 1 s).
//
//	go run ./examples/feedback
package main

import (
	"fmt"
	"os"
	"time"

	"memca"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "feedback:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := memca.DefaultConfig()
	cfg.Duration = 5 * time.Minute
	cfg.Attack.Params = memca.AttackParams{
		Intensity:   0.3,
		BurstLength: 60 * time.Millisecond,
		Interval:    4 * time.Second,
	}
	fb := memca.DefaultFeedback()
	fb.DecisionEvery = 5 * time.Second
	cfg.Feedback = &fb

	x, err := memca.NewExperiment(cfg)
	if err != nil {
		return err
	}
	defer x.Close()

	// Print the controller trajectory every 20 simulated seconds.
	engine := x.Engine()
	var watch func()
	watch = func() {
		p := x.Burster().Params()
		fmt.Printf("t=%-6v R=%.2f  L=%-8v I=%-6v  probe p95=%v\n",
			engine.Now().Round(time.Second), p.Intensity,
			p.BurstLength.Round(time.Millisecond), p.Interval.Round(time.Millisecond),
			x.Feedback().TailRT().Round(time.Millisecond))
		if engine.Now() < cfg.Warmup+cfg.Duration {
			engine.Schedule(20*time.Second, watch)
		}
	}
	engine.Schedule(cfg.Warmup, watch)

	rep, err := x.Run()
	if err != nil {
		return err
	}

	c := x.Feedback().Commander()
	fmt.Printf("\ncommander: %d decisions, %d escalations, %d backoffs\n",
		c.Decisions(), c.Escalations(), c.Backoffs())
	fmt.Printf("final params: R=%.2f L=%v I=%v\n",
		x.Burster().Params().Intensity,
		x.Burster().Params().BurstLength.Round(time.Millisecond),
		x.Burster().Params().Interval.Round(time.Millisecond))
	fmt.Printf("whole-run client p95 = %v (mixes the weak early phase)\n", rep.Client.P95.Round(time.Millisecond))
	fmt.Printf("smoothed tail estimate at the end: %v\n", c.SmoothedTailRT().Round(time.Millisecond))
	return nil
}
