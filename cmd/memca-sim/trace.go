package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"memca"
	"memca/internal/telemetry"
	"memca/internal/trace"
)

// traceSpec is the tracer of a -trace run: the slowest 4096 traces kept
// with full attribution, a 2^18-event span ring for the Chrome and OTLP
// exports, and every trace of at least 1 s counted as tail.
func traceSpec() memca.TraceSpec {
	spec := memca.DefaultTraceSpec()
	spec.TailKeep = 4096
	spec.EventRing = 1 << 18
	spec.TailOver = time.Second
	return spec
}

// writeTrace exports a traced run into dir under the run's label
// (attacked or baseline): the Chrome and OTLP span exports, the
// slowest-N and head-sample attributions, and per feature window a
// timeline, a features CSV and its OTLP gauges. It then prints the >=p99
// tail decomposition and the 50 ms-versus-1 s blindness ratio.
func writeTrace(dir string, attacked bool, tr *memca.Tracer, p99 time.Duration) error {
	label := "baseline"
	if attacked {
		label = "attacked"
	}
	path := func(format string, args ...any) string {
		return filepath.Join(dir, fmt.Sprintf(format, args...))
	}
	otlp := telemetry.DefaultOTLPSpec()
	tierNames := tr.TierNames()
	tail := tr.TailAttributions()
	writes := []error{
		tr.WriteChromeTrace(path("trace_%s.json", label)),
		tr.WriteOTLP(path("otlp_%s.json", label), otlp),
		telemetry.WriteAttributionCSV(path("attribution_%s.csv", label), tierNames, tail),
	}
	if head := tr.HeadAttributions(); len(head) > 0 {
		writes = append(writes, telemetry.WriteAttributionCSV(path("attribution_head_%s.csv", label), tierNames, head))
	}
	for _, fs := range tr.Features() {
		ms := fs.Res.Milliseconds()
		writes = append(writes,
			telemetry.WriteTimelineCSV(path("timeline_%s_%dms.csv", label, ms), fs),
			telemetry.WriteFeaturesCSV(path("features_%s_%dms.csv", label, ms), fs),
			telemetry.WriteFeaturesOTLP(path("features_otlp_%s_%dms.json", label, ms), otlp, fs))
	}
	for _, err := range writes {
		if err != nil {
			return err
		}
	}

	over := tail[:0:0]
	for i := range tail {
		if tail[i].RT >= p99 {
			over = append(over, tail[i])
		}
	}
	b := telemetry.Summarize(len(tierNames), over)
	fmt.Printf("trace: %d span events (%d overwritten), traces closed %d (untracked %d)\n",
		tr.EventCount(), tr.EventsDropped(), tr.Closed(), tr.Untracked())
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
	fmt.Printf(">=p99 (%v) tail attribution over %d traces:\n", p99.Round(time.Millisecond), b.Count)
	for _, line := range strings.Split(strings.TrimSuffix(tbl.Render(), "\n"), "\n") {
		fmt.Printf("  %s\n", line)
	}
	fine, coarse := tr.FeaturesAt(50*time.Millisecond), tr.FeaturesAt(time.Second)
	if fine != nil && coarse != nil {
		fmt.Printf("peak window-mean RT: %v at 50ms vs the 1s view of the same instant — blindness %.2fx\n",
			fine.PeakMeanRT().Round(time.Millisecond), fine.BlindnessRatio(coarse))
	}
	fmt.Printf("trace artifacts written under %s/\n\n", dir)
	return nil
}
