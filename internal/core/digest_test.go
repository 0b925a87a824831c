package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"memca/internal/telemetry"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/traced_digests.txt with current output")

// tracedRun is one traced configuration of the digest oracle.
type tracedRun struct {
	label string
	cfg   Config
}

// tracedRuns returns the traced attacked run (the generator's
// retransmissions and abandonments) and the traced feedback run (the
// probe's as well) at memca-trace's quick settings: 45 s measured, 20 s
// warm-up, seed 1, both feature windows, a 1 s tail threshold.
func tracedRuns() []tracedRun {
	fb := DefaultConfig()
	feedback := DefaultFeedback()
	fb.Feedback = &feedback
	runs := []tracedRun{{"attacked", DefaultConfig()}, {"feedback", fb}}
	for i := range runs {
		cfg := &runs[i].cfg
		cfg.Seed = 1
		cfg.Duration = 45 * time.Second
		cfg.Warmup = 20 * time.Second
		spec := telemetry.DefaultSpec()
		spec.TailKeep = 4096
		spec.EventRing = 1 << 18
		spec.FeatureWindows = []time.Duration{50 * time.Millisecond, time.Second}
		spec.TailOver = time.Second
		cfg.Trace = &spec
	}
	return runs
}

// tracedRunDigests runs one traced experiment and returns
// "<label>/<artifact> <sha256>" lines for its Report JSON, every tracer
// export and the engine's processed-event count.
func tracedRunDigests(t *testing.T, label string, cfg Config) []string {
	t.Helper()
	x, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tr := x.Tracer()
	names := tr.TierNames()
	writes := []error{
		tr.WriteChromeTrace(filepath.Join(dir, "trace.json")),
		tr.WriteOTLP(filepath.Join(dir, "otlp.json"), telemetry.DefaultOTLPSpec()),
		telemetry.WriteAttributionCSV(filepath.Join(dir, "attribution.csv"), names, tr.TailAttributions()),
		telemetry.WriteAttributionCSV(filepath.Join(dir, "attribution_head.csv"), names, tr.HeadAttributions()),
	}
	for _, tl := range tr.Timelines() {
		writes = append(writes, telemetry.WriteTimelineCSV(filepath.Join(dir, "timeline_"+tl.Res.String()+".csv"), tl))
	}
	for _, fs := range tr.Features() {
		writes = append(writes,
			telemetry.WriteFeaturesCSV(filepath.Join(dir, "features_"+fs.Res.String()+".csv"), fs),
			telemetry.WriteFeaturesOTLP(filepath.Join(dir, "features_otlp_"+fs.Res.String()+".json"), telemetry.DefaultOTLPSpec(), fs))
	}
	for _, err := range writes {
		if err != nil {
			t.Fatal(err)
		}
	}
	files := map[string][]byte{
		"processed": []byte(strconv.FormatUint(x.Engine().Processed(), 10)),
	}
	if files["report.json"], err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	lines := make([]string, 0, len(files))
	for name, data := range files {
		sum := sha256.Sum256(data)
		lines = append(lines, label+"/"+name+" "+hex.EncodeToString(sum[:]))
	}
	return lines
}

// TestTracedRunDigests pins every artifact of a traced attacked run (the
// generator's retransmissions and abandonments) and of a traced feedback
// run (the probe's as well) against testdata/traced_digests.txt. A
// refactor of the client or tracer paths must leave every byte unchanged.
// Regenerate deliberately with:
// go test ./internal/core -run TestTracedRunDigests -update
func TestTracedRunDigests(t *testing.T) {
	var lines []string
	for _, run := range tracedRuns() {
		lines = append(lines, tracedRunDigests(t, run.label, run.cfg)...)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "traced_digests.txt")
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading digests (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("traced run digests drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
