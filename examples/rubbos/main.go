// RUBBoS under attack: the full Figure 2 + Figure 9 scenario. Runs the
// 3500-client RUBBoS workload in both modelled clouds under the
// memory-lock MemCA attack, prints per-tier percentile curves (tail
// amplification), and zooms into one fine-grained 8-second window to show
// the burst -> CPU saturation -> queue propagation -> client damage chain.
//
//	go run ./examples/rubbos
package main

import (
	"fmt"
	"os"
	"time"

	"memca"
	"memca/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rubbos:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, env := range []memca.Env{memca.EnvEC2, memca.EnvPrivateCloud} {
		cfg := memca.DefaultConfig()
		cfg.Env = env
		cfg.Duration = 90 * time.Second
		cfg.RecordSeries = true
		x, err := memca.NewExperiment(cfg)
		if err != nil {
			return err
		}
		rep, err := x.Run()
		if err != nil {
			return err
		}

		fmt.Printf("==== %s ====\n", env)
		fmt.Println(rep.Render())

		// Tail amplification, Figure 2 style: percentile curves per tier.
		fmt.Println("percentile  mysql      tomcat     apache     client")
		for _, p := range []float64{90, 95, 98, 99} {
			idx := indexOfPercentile(p)
			fmt.Printf("p%-10v %-10v %-10v %-10v %v\n", p,
				rep.Tiers[2].Curve[idx].Round(time.Millisecond),
				rep.Tiers[1].Curve[idx].Round(time.Millisecond),
				rep.Tiers[0].Curve[idx].Round(time.Millisecond),
				rep.ClientCurve[idx].Round(time.Millisecond))
		}

		// Figure 9 style: worst client response times inside an 8s window.
		start := cfg.Warmup + 4*time.Second
		worst := time.Duration(0)
		over1s := 0
		for _, pt := range x.Generator().RTSeries().Points {
			if pt.T < start || pt.T >= start+8*time.Second {
				continue
			}
			rt := time.Duration(pt.V * float64(time.Second))
			if rt > worst {
				worst = rt
			}
			if rt >= time.Second {
				over1s++
			}
		}
		fmt.Printf("\n8-second snapshot: worst client RT %v, %d requests above 1s, %d attack bursts total\n\n",
			worst.Round(time.Millisecond), over1s, rep.Bursts)
		x.Close()
	}
	return nil
}

// indexOfPercentile maps a percentile to its index in the report curves.
func indexOfPercentile(p float64) int {
	grid := memca.FigurePercentiles()
	for i, v := range grid {
		if stats.ApproxEqual(v, p) {
			return i
		}
	}
	return len(grid) - 1
}
