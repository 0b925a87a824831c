// Quickstart: run the paper's headline experiment — a 3-tier RUBBoS-style
// web application under the MemCA memory-lock attack — and compare the
// client-perceived tail latency against a clean baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"memca"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Ctrl-C aborts a run mid-simulation instead of waiting it out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A shortened run is enough to see the effect; the full paper setup
	// is memca.DefaultConfig() unchanged (3 minutes, 3500 clients).
	base := memca.DefaultConfig()
	base.Duration = time.Minute

	fmt.Println("== baseline (no attack) ==")
	clean := base
	clean.Attack = nil
	cleanRep, err := runOne(ctx, clean)
	if err != nil {
		return err
	}

	fmt.Println("== under MemCA (memory lock, L=500ms, I=2s) ==")
	attackRep, err := runOne(ctx, base)
	if err != nil {
		return err
	}

	fmt.Printf("client p95: %v -> %v (%.0fx)\n",
		cleanRep.Client.P95.Round(time.Millisecond),
		attackRep.Client.P95.Round(time.Millisecond),
		float64(attackRep.Client.P95)/float64(cleanRep.Client.P95))
	fmt.Printf("1-minute average MySQL CPU stays at %.0f%% -> %.0f%% — nothing for CloudWatch to see\n",
		cleanRep.VictimUtilization[0].Mean*100, attackRep.VictimUtilization[0].Mean*100)
	return nil
}

func runOne(ctx context.Context, cfg memca.Config) (*memca.Report, error) {
	x, err := memca.NewExperiment(cfg)
	if err != nil {
		return nil, err
	}
	defer x.Close()
	rep, err := x.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Println(rep.Render())
	return rep, nil
}
