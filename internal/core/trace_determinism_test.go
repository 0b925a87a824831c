package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memca/internal/stats"
	"memca/internal/telemetry"
)

// traceArtifacts runs one attacked experiment with tracing enabled,
// exports every trace artifact into dir, and closes the experiment. It
// returns each file's bytes plus the Report's JSON, encoded after Close,
// under "report.json", and the pooled arena the run drew from.
func traceArtifacts(t *testing.T, dir string, seed int64) (map[string][]byte, *stats.Arena) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 45 * time.Second
	cfg.Warmup = 10 * time.Second
	spec := telemetry.DefaultSpec()
	spec.TailKeep = 256
	spec.EventRing = 1 << 14
	cfg.Trace = &spec

	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := x.Tracer()
	if tr == nil {
		t.Fatal("tracing enabled but Tracer() is nil")
	}
	if tr.Closed() == 0 {
		t.Fatal("tracer closed no traces")
	}
	if err := tr.WriteChromeTrace(filepath.Join(dir, "trace.json")); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteOTLP(filepath.Join(dir, "otlp.json"), telemetry.DefaultOTLPSpec()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteAttributionCSV(filepath.Join(dir, "attribution.csv"), tr.TierNames(), tr.TailAttributions()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteAttributionCSV(filepath.Join(dir, "attribution_head.csv"), tr.TierNames(), tr.HeadAttributions()); err != nil {
		t.Fatal(err)
	}
	for _, tl := range tr.Timelines() {
		name := filepath.Join(dir, "timeline_"+tl.Res.String()+".csv")
		if err := telemetry.WriteTimelineCSV(name, tl); err != nil {
			t.Fatal(err)
		}
	}
	arena := x.cfg.Arena
	x.Close()
	files := make(map[string][]byte)
	if files["report.json"], err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = data
	}
	return files, arena
}

// sameArtifacts fails t unless two artifact sets hold the same files with
// identical bytes.
func sameArtifacts(t *testing.T, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("run 1 wrote %d artifacts, run 2 wrote %d", len(a), len(b))
	}
	if len(a) < 5 {
		t.Fatalf("expected report + trace + attributions + timelines, got %d files", len(a))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Errorf("run 2 missing %s", name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between identical-seed runs (%d vs %d bytes)", name, len(want), len(got))
		}
	}
}

// TestTraceExportDeterminism pins the tracing determinism contract:
// two experiments built from the same seed export byte-identical Chrome
// traces, attribution CSVs, and timelines. Tracing must be a pure
// observer — if it ever perturbed the simulation (an engine RNG draw, a
// map-order dependence, a time.Now leak), this is the test that catches
// it.
func TestTraceExportDeterminism(t *testing.T) {
	a, _ := traceArtifacts(t, t.TempDir(), 1)
	b, _ := traceArtifacts(t, t.TempDir(), 1)
	sameArtifacts(t, a, b)
}

// TestCloseArenaReuse runs seed 1, seed 2, then seed 1 again, closing each
// experiment, so the later runs record into the arena an earlier Close
// gave back. The third run must reproduce the first byte for byte — its
// Report (encoded after Close) and every trace export: a recycled arena
// carries nothing over from the runs before it.
func TestCloseArenaReuse(t *testing.T) {
	first, arena := traceArtifacts(t, t.TempDir(), 1)
	traceArtifacts(t, t.TempDir(), 2)
	third, again := traceArtifacts(t, t.TempDir(), 1)
	if again != arena {
		t.Fatal("the third run did not reuse the first run's arena; the test proves nothing")
	}
	if st := arena.Stats(); st.Resets < 2 || st.Live != 0 {
		t.Fatalf("pooled arena after three closed runs: %+v, want >= 2 resets and nothing live", st)
	}
	sameArtifacts(t, first, third)
}
