// Defense: the countermeasure space the paper's conclusion calls for.
// Runs the memory-lock attack against three host configurations — no
// defense, Heracles/MBA-style bandwidth reservation, and kernel
// split-lock protection — then shows what a fine-grained millibottleneck
// detector would see and what it would cost.
//
// The isolation asymmetry is the point: bandwidth partitioning protects
// against bus *saturation* but sits above the hardware bus lock, so it
// cannot stop MemCA's lock attack; split-lock protection stops exactly
// that attack.
//
//	go run ./examples/defense
package main

import (
	"fmt"
	"os"
	"time"

	"memca"
	"memca/internal/defense"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "defense:", err)
		os.Exit(1)
	}
}

func run() error {
	variants := []struct {
		name string
		spec *memca.DefenseSpec
	}{
		{"no defense", nil},
		{"bandwidth reservation (3 GB/s for MySQL)", &memca.DefenseSpec{VictimReservationMBps: 3000}},
		{"split-lock protection", &memca.DefenseSpec{SplitLockProtection: true}},
	}

	var undefended *memca.Experiment
	for _, v := range variants {
		cfg := memca.DefaultConfig()
		cfg.Duration = 90 * time.Second
		cfg.Defense = v.spec
		x, err := memca.NewExperiment(cfg)
		if err != nil {
			return err
		}
		rep, err := x.Run()
		if err != nil {
			return err
		}
		verdict := "ATTACK SUCCEEDS"
		if rep.Client.P95 < time.Second {
			verdict = "mitigated"
		}
		fmt.Printf("%-42s client p95 = %-9v burst D = %.3f   %s\n",
			v.name, rep.Client.P95.Round(time.Millisecond), rep.LastDegradation, verdict)
		if v.spec == nil {
			undefended = x
			defer x.Close()
		} else {
			x.Close()
		}
	}

	// Detection: run the millibottleneck detector over the undefended
	// run's exact CPU signal at two granularities.
	source := undefended.VictimCPU()
	fmt.Println()
	for _, g := range []time.Duration{50 * time.Millisecond, time.Second} {
		cfg := defense.DefaultDetector()
		cfg.Granularity = g
		det, err := defense.NewDetector(cfg)
		if err != nil {
			return err
		}
		episodes, err := det.Detect(source, 90*time.Second)
		if err != nil {
			return err
		}
		cls := defense.Classify(episodes, 5)
		fmt.Printf("detector @ %-5v %3d millibottlenecks, attack classified: %-5v (overhead %.3f%% of a core)\n",
			g, len(episodes), cls.PulsatingAttack, cfg.OverheadFraction()*100)
	}
	fmt.Println("\nfine-grained detection works but costs 20x the monitoring budget of 1s sampling —")
	fmt.Println("the economics that keep the MemCA window open (Section V-B).")
	return nil
}
