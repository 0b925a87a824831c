package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
)

// TestTracerExportsWrappedRing pins the in-place ring view: on a ring that
// has wrapped with its oldest event away from index 0, the tracer's own
// exports, called repeatedly and in either order with Events copies in
// between, must each equal the free-function export of an Events copy
// taken before the first of them. It checks again after more events, and
// after a Reset plus more events, so a rotation that moved the write
// cursor wrongly or rotated twice shows up.
func TestTracerExportsWrappedRing(t *testing.T) {
	e := sim.NewEngine(1)
	spec := testSpec()
	spec.EventRing = 41
	n, tr := buildTraced(t, e, spec, 0,
		detTier("front", 2, 1, time.Millisecond),
		detTier("back", queueing.Infinite, 1, 3*time.Millisecond))
	submit := func(count int) {
		for i := 0; i < count; i++ {
			if _, err := n.Submit(queueing.SubmitOpts{Class: i % 2}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.RunAll(100000); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(round string) {
		t.Helper()
		if tr.EventsDropped() == 0 || tr.evNext == 0 {
			t.Fatalf("%s: ring not wrapped at a nonzero start (next %d, dropped %d)", round, tr.evNext, tr.EventsDropped())
		}
		want := tr.Events()
		for i := 1; i < len(want); i++ {
			if want[i].Seq != want[i-1].Seq+1 {
				t.Fatalf("%s: Events out of order: seq %d after %d", round, want[i].Seq, want[i-1].Seq)
			}
		}
		dir := t.TempDir()
		names, spec := tr.TierNames(), DefaultOTLPSpec()
		if err := WriteChromeTrace(filepath.Join(dir, "want_chrome.json"), names, want); err != nil {
			t.Fatal(err)
		}
		if err := WriteOTLP(filepath.Join(dir, "want_otlp.json"), spec, names, want); err != nil {
			t.Fatal(err)
		}
		wantChrome, wantOTLP := read(filepath.Join(dir, "want_chrome.json")), read(filepath.Join(dir, "want_otlp.json"))
		// Chrome then OTLP, then the reverse order: each export twice.
		for i, otlp := range []bool{false, true, true, false} {
			path, wantFile, export := filepath.Join(dir, "chrome.json"), wantChrome, tr.WriteChromeTrace
			if otlp {
				path, wantFile = filepath.Join(dir, "otlp.json"), wantOTLP
				export = func(path string) error { return tr.WriteOTLP(path, spec) }
			}
			if err := export(path); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(read(path), wantFile) {
				t.Fatalf("%s: export %d (%s) differs from the export of an Events copy", round, i, filepath.Base(path))
			}
			if got := tr.Events(); !slices.Equal(got, want) {
				t.Fatalf("%s: Events changed after export %d", round, i)
			}
		}
	}

	submit(20)
	check("wrapped")
	submit(7)
	check("recorded on after an export")
	tr.Reset(e.Now())
	submit(13)
	check("after Reset")
}
