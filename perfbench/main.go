// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public APIs of the figure drivers, the dsweep
// fabric, the experiment core, the tracer and its exporters, and the live
// victimd chain, checks every op's output, and prints one JSON result line.
//
//	perfbench --workload fig-quick --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics from a run whose middle half records the
// benchmark's spans and a CPU profile. README.md maps layers to metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerUnits lists the --trace 1 metrics. A layer the workload does not
// run reports 0; README.md says which workload moves which metric.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"op_ms_p99": "ms", "fail_pct": "%",
		"sim.events_per_op": "count", "sim.host_ns_per_event": "ns",
		"workload.requests": "count", "workload.retransmissions": "count",
		"queueing.drops": "count", "attack.bursts": "count",
		"figures.fig2_ms": "ms", "figures.fig7_ms": "ms",
		"figures.ablation_mechanisms_ms": "ms", "figures.fig10_ms": "ms",
		"dsweep.manifest_ms": "ms", "dsweep.shard_ms": "ms", "dsweep.merge_ms": "ms",
		"dsweep.finalize_ms": "ms", "dsweep.artifact_bytes": "bytes", "figures.csv_bytes": "bytes",
		"core.new_experiment_ms": "ms", "core.run_ms": "ms",
		"telemetry.chrome_ms": "ms", "telemetry.otlp_ms": "ms", "telemetry.csv_ms": "ms",
		"telemetry.features_otlp_ms": "ms", "telemetry.export_mb": "MB",
		"telemetry.closed": "count", "telemetry.untracked": "count", "telemetry.events_dropped": "count",
		"victimd.hop_us": "us", "victimd.start_ms": "ms",
		"live.attempts_per_op": "count", "live.events_dropped": "count", "live.open": "count",
		"live.orphans": "count", "live.report_ms": "ms",
		"gc.cpu_ms_per_op": "ms", "gc.cycles_per_op": "count", "heap.objects_per_op": "count",
		"loadgen.late_ms_p99": "ms", "host.ref_ms": "ms", "bench.trace_overhead_pct": "%",
	}
	for _, tier := range []string{"web", "app", "db"} {
		u["victimd."+tier+".queue_us_mean"] = "us"
		u["victimd."+tier+".service_us_mean"] = "us"
		u["victimd."+tier+".rejected"] = "count"
	}
	for _, b := range selfShareBuckets {
		u["self_share."+b] = "%"
	}
	return u
}()

// profileHz is the CPU profile's sampling rate in the traced half.
const profileHz = 1000

// phase is the accounting of one measured stretch of a run.
type phase struct {
	opMs      []float64
	setupS    []float64
	refMs     []float64
	attempted int
	failed    int
	errs      []string
	res       counters
	layer     map[string]float64
}

func newPhase() *phase { return &phase{layer: map[string]float64{}} }

// fail records a failed op; the first few reasons are kept for the report.
func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// bench is one run's shared state.
type bench struct {
	seed  int64
	out   string // scratch directory for op outputs and the span dump
	spans *spans // nil while untraced
	ops   int
	// runErrs are failures of the run as a whole (a check over the whole
	// run, a failed warm-up, a generator that fell behind); any makes the
	// result incorrect.
	runErrs []string
}

func (b *bench) nextOp() int { b.ops++; return b.ops }

func (b *bench) runErr(format string, args ...any) {
	b.runErrs = append(b.runErrs, fmt.Sprintf(format, args...))
}

// workload runs a warm-up and then measured phases against deadlines.
type workload interface {
	// warm runs whatever must precede timing (one untimed op).
	warm(b *bench) error
	// measure runs until the deadline, charging everything to p.
	measure(b *bench, p *phase, until time.Time)
	// fingerprint identifies the run's outputs so two commits can be
	// compared exactly.
	fingerprint() string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "fig-quick":
		return &figQuick{}, nil
	case "trace-export":
		return &traceExport{}, nil
	case "live-chain":
		return &liveChain{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig-quick, trace-export or live-chain)", name)
}

// settle returns the heap to the state a fresh process starts from: the
// previous op's garbage collected and its pages handed back to the OS. A
// user runs one op per process and pays the page faults of every pre-sized
// slab, so each op and each set-up sample starts from here; without it
// they would land on whatever GC phase and warm pages the previous op
// left, which made set-up times bimodal.
func settle() { debug.FreeOSMemory() }

// runOps runs op back to back until the deadline (at least once), timing
// the host probe between ops and charging each op's wall time and
// resources to p.
func runOps(b *bench, p *phase, until time.Time, op func(b *bench, p *phase) error) {
	for p.attempted == 0 || time.Now().Before(until) {
		settle()
		p.refMs = append(p.refMs, hostRef())
		start, t0 := readCounters(), time.Now()
		err := op(b, p)
		wall := time.Since(t0)
		p.res.add(start, readCounters())
		p.attempted++
		p.opMs = append(p.opMs, ms(wall))
		if err != nil {
			p.fail(err)
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig-quick, trace-export or live-chain")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		out     = flag.String("out", ".bench_build/out", "scratch directory for op outputs and span dumps")
	)
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result; the human report
// goes to w.
func run(name string, seed int64, seconds time.Duration, traced bool, out string, w io.Writer) (*result, error) {
	wl, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	b := &bench{seed: seed, out: out}
	if err := wl.warm(b); err != nil {
		b.runErr("warm-up: %v", err)
	}
	start := time.Now()
	if !traced {
		p := newPhase()
		wl.measure(b, p, start.Add(seconds))
		return report(w, name, b, wl, p, endToEndMetrics(p)), nil
	}

	// Traced run: an untraced quarter, a traced half, an untraced
	// quarter. The untraced quarters only set the baseline for
	// bench.trace_overhead_pct, and around the traced half a linear host
	// drift cancels out of it. Every per-layer metric comes from the traced
	// half, which records spans and a CPU profile.
	base, p := newPhase(), newPhase()
	wl.measure(b, base, start.Add(seconds/4))
	b.spans = newSpans()
	var prof bytes.Buffer
	// Sample at profileHz instead of pprof's default 100 Hz: the live
	// workload burns well under a CPU-second per run, too few samples at
	// 100 Hz to split across its layers. The runtime warns on stderr that
	// StartCPUProfile cannot reset the rate; the higher rate stays.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	wl.measure(b, p, start.Add(seconds*3/4))
	pprof.StopCPUProfile()
	spans := b.spans
	b.spans = nil
	wl.measure(b, base, start.Add(seconds))
	b.spans = spans
	if base.failed > 0 {
		b.runErr("untraced quarters: %d of %d ops failed, first: %s", base.failed, base.attempted, base.errs[0])
	}
	shares, err := selfShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	self, err := b.spans.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
	if err != nil {
		return nil, err
	}
	printSelfTimes(w, self)

	m := map[string]metric{}
	for n, u := range perLayerUnits {
		m[n] = metric{Value: 0, Unit: u}
	}
	set := func(n string, v float64) {
		if _, ok := perLayerUnits[n]; !ok {
			panic("perfbench: unregistered per-layer metric " + n)
		}
		m[n] = metric{Value: finite(v), Unit: perLayerUnits[n]}
	}
	for k, v := range p.layer {
		set(k, v)
	}
	// Every "<span>_ms" metric is the per-op median of that span.
	for k := range perLayerUnits {
		if name, ok := strings.CutSuffix(k, "_ms"); ok {
			if d := b.spans.perOp(name); len(d) > 0 {
				set(k, median(d))
			}
		}
	}
	for bk, v := range shares {
		set("self_share."+bk, v)
	}
	n := float64(p.attempted)
	set("op_ms_p99", quantile(p.opMs, 0.99))
	set("fail_pct", 100*float64(p.failed)/n)
	set("gc.cpu_ms_per_op", p.res.gcCPU*1000/n)
	set("gc.cycles_per_op", float64(p.res.gcCycles)/n)
	set("heap.objects_per_op", float64(p.res.allocObjects)/n)
	set("host.ref_ms", median(append(base.refMs, p.refMs...)))
	set("bench.trace_overhead_pct", 100*(median(p.opMs)/median(base.opMs)-1))
	return report(w, name, b, wl, p, m), nil
}

func endToEndMetrics(p *phase) map[string]metric {
	n := float64(p.attempted)
	v := map[string]float64{
		"setup_s":         median(p.setupS),
		"op_ms_p50":       median(p.opMs),
		"cpu_ms_per_op":   ms(p.res.cpu) / n,
		"alloc_mb_per_op": float64(p.res.allocBytes) / (1 << 20) / n,
		"peak_rss_mb":     peakRSSMB(),
	}
	m := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = metric{Value: finite(v[e.name]), Unit: e.unit}
	}
	return m
}

// finite maps the NaN of an empty sample (a run whose every op failed
// before measuring it) to 0, which JSON can carry; such a run is already
// reported incorrect.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// report prints the human summary and assembles the result line.
func report(w io.Writer, name string, b *bench, wl workload, p *phase, m map[string]metric) *result {
	n := float64(p.attempted)
	fmt.Fprintf(w, "workload %s seed %d: %d ops, %d failed (fail_pct %.3f %%)\n", name, b.seed, p.attempted, p.failed, 100*float64(p.failed)/n)
	fmt.Fprintf(w, "fingerprint %s\n", wl.fingerprint())
	fmt.Fprintf(w, "op_ms quartiles %.3f / %.3f / %.3f, p99 %.3f over %d ops\n",
		quantile(p.opMs, 0.25), median(p.opMs), quantile(p.opMs, 0.75), quantile(p.opMs, 0.99), len(p.opMs))
	fmt.Fprintf(w, "host.ref_ms quartiles %.3f / %.3f / %.3f over %d probes\n",
		quantile(p.refMs, 0.25), median(p.refMs), quantile(p.refMs, 0.75), len(p.refMs))
	fmt.Fprintf(w, "setup_s quartiles %.6f / %.6f / %.6f over %d set-ups\n",
		quantile(p.setupS, 0.25), median(p.setupS), quantile(p.setupS, 0.75), len(p.setupS))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, e := range p.errs {
		fmt.Fprintf(w, "op failure: %s\n", e)
	}
	for _, e := range b.runErrs {
		fmt.Fprintf(w, "run failure: %s\n", e)
	}
	return &result{
		Correct:   p.failed == 0 && len(b.runErrs) == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   m,
	}
}

func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "span self time (traced half):")
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %10.1f ms\n", k, ms(self[k]))
	}
}

// fileBytes sums the sizes of the files matching pattern.
func fileBytes(pattern string) (int64, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
