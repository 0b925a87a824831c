package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"memca/internal/core"
	"memca/internal/victimd"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerUnits))
	}
	for _, m := range b.PerLayer {
		if u, ok := perLayerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s): program has unit %q (registered %t)", m.Name, m.Unit, u, ok)
		}
	}
}

// checkResult asserts a run passed its checks and emitted exactly the
// metrics BENCHMARK.json names, with their units.
func checkResult(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

// TestWorkloadsShortRun runs each workload for one short untraced and
// traced run on the current code.
func TestWorkloadsShortRun(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, name := range []string{"fig-quick", "trace-export", "live-chain"} {
		t.Run(name, func(t *testing.T) {
			res, err := run(name, 3, time.Second, false, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, b.EndToEnd)
			for _, m := range b.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, v)
				}
			}
			out := t.TempDir()
			res, err = run(name, 3, 2*time.Second, true, out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, b.PerLayer)
			if res.Metrics["host.ref_ms"].Value <= 0 {
				t.Error("host.ref_ms not measured")
			}
			dumps, _ := filepath.Glob(filepath.Join(out, "spans-*.json"))
			if len(dumps) != 1 {
				t.Errorf("span dumps %v, want one", dumps)
			}
		})
	}
}

func TestCorruptFigureOutputCounted(t *testing.T) {
	ops := 0
	w := &figQuick{mutate: func(dir string) {
		ops++
		if ops > 1 { // leave the warm-up op, which sets the reference, alone
			if err := os.WriteFile(filepath.Join(dir, "fig2_ec2.csv"), []byte("corrupt\n"), 0o644); err != nil {
				t.Error(err)
			}
		}
	}}
	b := &bench{seed: 3, out: t.TempDir()}
	if err := w.warm(b); err != nil {
		t.Fatal(err)
	}
	p := newPhase()
	w.measure(b, p, time.Now())
	if p.attempted != 1 || p.failed != 1 || !strings.Contains(p.errs[0], "fingerprint") {
		t.Fatalf("attempted %d failed %d errs %v, want the corrupted op counted as failed", p.attempted, p.failed, p.errs)
	}
}

func TestCorruptReportCounted(t *testing.T) {
	ops := 0
	w := &traceExport{mutate: func(r *core.Report) {
		ops++
		if ops > 1 {
			r.Drops++
		}
	}}
	b := &bench{seed: 3, out: t.TempDir()}
	if err := w.warm(b); err != nil {
		t.Fatal(err)
	}
	p := newPhase()
	w.measure(b, p, time.Now())
	if p.attempted != 1 || p.failed != 1 || !strings.Contains(p.errs[0], "fingerprint") {
		t.Fatalf("attempted %d failed %d errs %v, want the corrupted op counted as failed", p.attempted, p.failed, p.errs)
	}
}

func TestClosedTierCounted(t *testing.T) {
	w := &liveChain{afterStart: func(s *victimd.System) {
		// The db tier goes away a quarter second into each load phase.
		time.AfterFunc(250*time.Millisecond, func() { _ = s.DB.Close() })
	}}
	b := &bench{seed: 3, out: t.TempDir()}
	if err := w.warm(b); err != nil {
		t.Fatal(err)
	}
	p := newPhase()
	w.measure(b, p, time.Now().Add(4*time.Second))
	if p.attempted == 0 || p.failed == 0 || p.failed == p.attempted {
		t.Fatalf("attempted %d failed %d, want the requests after the close counted as failed", p.attempted, p.failed)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"memca/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.mallocgc", "memca/internal/stats.(*Sample).Add", "memca/internal/sim.(*Engine).Step"}, "stats"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "memca/internal/telemetry.(*Tracer).Observe"}, "runtime_gc"},
		{[]string{"memca/internal/telemetry/live.(*Collector).Record", "memca/internal/victimd.(*Tier).handle"}, "live"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net/http.(*conn).serve"}, "syscall_io"},
		{[]string{"bytes.(*Buffer).Write", "net/http.(*persistConn).writeLoop"}, "net_http"},
		{[]string{"strconv.AppendInt", "memca/internal/telemetry.WriteOTLP"}, "encoding"},
		{[]string{"memca/internal/analytical.RUBBoS3Tier"}, "other"},
		{[]string{"main.hostRef"}, "other"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// busyLoop is profiled by TestSelfSharesDecodesProfile.
func busyLoop(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestSelfSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyLoop(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".busyLoop") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in busyLoop among %d decoded samples", len(samples))
	}
	shares, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range selfShareBuckets {
		total += shares[b]
	}
	if total > 100+1e-9 {
		t.Errorf("bucket shares sum to %v%%", total)
	}
	if _, err := selfShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestSelfTimes(t *testing.T) {
	s := &spans{list: []span{
		{Name: "root", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 2, End: 5},
		{Name: "c", Parent: 0, Start: 8, End: 12}, // overruns the parent
		{Name: "d", Parent: 1, Start: 1, End: 2},
	}}
	got := s.selfTimes()
	want := []time.Duration{4, 1, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self %d, want %d", s.list[i].Name, got[i], want[i])
		}
	}
}
