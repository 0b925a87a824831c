// Command memca-trace runs a MemCA experiment with per-request causal
// tracing enabled and exports what aggregate metrics hide: Chrome
// trace-event JSON (load it in Perfetto or about://tracing to walk one
// request's path through the tiers), per-trace critical-path attribution
// CSVs, and dual-resolution latency timelines demonstrating monitoring
// blindness.
//
// Usage:
//
//	memca-trace                       # attacked + baseline runs into out/trace/
//	memca-trace -quick                # shorter horizons (smoke run)
//	memca-trace -run attacked         # only the attacked run
//	memca-trace -duration 1m -seed 7  # custom horizon and seed
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"memca"
	"memca/internal/telemetry"
	"memca/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memca-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out      = flag.String("out", filepath.Join("out", "trace"), "output directory for trace artifacts")
		which    = flag.String("run", "both", "which runs to trace: attacked, baseline, or both")
		duration = flag.Duration("duration", 3*time.Minute, "measured phase length")
		warmup   = flag.Duration("warmup", 20*time.Second, "warm-up phase length")
		quick    = flag.Bool("quick", false, "shorter horizons for a smoke run (45s measured)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		tailKeep = flag.Int("tail", 4096, "slowest-N traces kept with full attribution")
		ring     = flag.Int("events", 1<<18, "span-event ring capacity (0 disables the Chrome and OTLP exports)")
		otlp     = flag.Bool("otlp", true, "also export OTLP/JSON span batches per run")
	)
	flag.Parse()

	runs := []bool{true, false}
	switch *which {
	case "both":
	case "attacked":
		runs = []bool{true}
	case "baseline":
		runs = []bool{false}
	default:
		return fmt.Errorf("unknown -run %q (want attacked, baseline, or both)", *which)
	}
	if *quick {
		*duration = 45 * time.Second
	}

	for _, attacked := range runs {
		if err := traceRun(*out, attacked, *duration, *warmup, *seed, *tailKeep, *ring, *otlp); err != nil {
			return err
		}
	}
	fmt.Printf("\nartifacts written under %s/\n", *out)
	return nil
}

func traceRun(out string, attacked bool, duration, warmup time.Duration, seed int64, tailKeep, ring int, otlp bool) error {
	name := "baseline"
	if attacked {
		name = "attacked"
	}
	fmt.Printf("=== %s ===\n", name)

	cfg := memca.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = duration
	cfg.Warmup = warmup
	if !attacked {
		cfg.Attack = nil
	}
	spec := memca.DefaultTraceSpec()
	spec.TailKeep = tailKeep
	spec.EventRing = ring
	spec.FeatureWindows = []time.Duration{50 * time.Millisecond, time.Second}
	spec.TailOver = time.Second
	cfg.Trace = &spec

	x, err := memca.NewExperiment(cfg)
	if err != nil {
		return err
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		return err
	}
	tr := x.Tracer()
	tierNames := tr.TierNames()

	// Exports: raw Chrome trace, the slowest-N and head-sample
	// attributions, and one timeline CSV per resolution.
	if ring > 0 {
		// Both span exports read the tracer's event ring in place.
		path := filepath.Join(out, fmt.Sprintf("trace_%s.json", name))
		if err := tr.WriteChromeTrace(path); err != nil {
			return err
		}
		fmt.Printf("  %s: %d span events (%d overwritten)\n", path, tr.EventCount(), tr.EventsDropped())
		if otlp {
			path := filepath.Join(out, fmt.Sprintf("otlp_%s.json", name))
			if err := tr.WriteOTLP(path, telemetry.DefaultOTLPSpec()); err != nil {
				return err
			}
			fmt.Printf("  %s: OTLP span batches\n", path)
		}
	}
	tail := tr.TailAttributions()
	if err := telemetry.WriteAttributionCSV(filepath.Join(out, fmt.Sprintf("attribution_%s.csv", name)), tierNames, tail); err != nil {
		return err
	}
	if head := tr.HeadAttributions(); len(head) > 0 {
		if err := telemetry.WriteAttributionCSV(filepath.Join(out, fmt.Sprintf("attribution_head_%s.csv", name)), tierNames, head); err != nil {
			return err
		}
	}
	for _, tl := range tr.Timelines() {
		path := filepath.Join(out, fmt.Sprintf("timeline_%s_%dms.csv", name, tl.Res.Milliseconds()))
		if err := telemetry.WriteTimelineCSV(path, tl); err != nil {
			return err
		}
	}
	// The per-window detection feature series: one CSV per window width,
	// plus the OTLP gauge export for metrics backends.
	for _, fs := range tr.Features() {
		path := filepath.Join(out, fmt.Sprintf("features_%s_%dms.csv", name, fs.Res.Milliseconds()))
		if err := telemetry.WriteFeaturesCSV(path, fs); err != nil {
			return err
		}
		if otlp {
			path := filepath.Join(out, fmt.Sprintf("features_otlp_%s_%dms.json", name, fs.Res.Milliseconds()))
			if err := telemetry.WriteFeaturesOTLP(path, telemetry.DefaultOTLPSpec(), fs); err != nil {
				return err
			}
		}
	}

	// Terminal summary: the >=p99 tail decomposition.
	p99 := rep.Client.P99
	over := tail[:0:0]
	for i := range tail {
		if tail[i].RT >= p99 {
			over = append(over, tail[i])
		}
	}
	b := telemetry.Summarize(len(tierNames), over)
	fmt.Printf("  traces closed %d (untracked %d), client p99 %v\n", tr.Closed(), tr.Untracked(), p99.Round(time.Millisecond))
	tbl := &trace.Table{Header: []string{"component", "share", "mean per trace"}}
	addRow := func(label string, d time.Duration) {
		mean := time.Duration(0)
		if b.Count > 0 {
			mean = d / time.Duration(b.Count)
		}
		shr := 0.0
		if b.RT > 0 {
			shr = float64(d) / float64(b.RT)
		}
		tbl.Add(label, fmt.Sprintf("%5.1f%%", shr*100), mean.Round(time.Microsecond).String())
	}
	for i, tn := range tierNames {
		addRow(tn+" queue", b.Queue[i])
		addRow(tn+" service", b.Service[i])
	}
	addRow("retransmission wait", b.RetransWait)
	addRow("other", b.Other)
	fmt.Printf("  >=p99 tail attribution over %d traces:\n", b.Count)
	for _, line := range splitLines(tbl.Render()) {
		fmt.Printf("    %s\n", line)
	}
	fine, coarse := tr.Timeline(50*time.Millisecond), tr.Timeline(time.Second)
	if fine != nil && coarse != nil {
		fmt.Printf("  peak window-mean RT: %v at 50ms vs the 1s view of the same instant — blindness %.2fx\n",
			fine.PeakMeanRT().Round(time.Millisecond), telemetry.BlindnessRatio(fine, coarse))
	}
	fmt.Println()
	return nil
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
