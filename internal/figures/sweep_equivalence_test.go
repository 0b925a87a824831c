package figures

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// equivalenceWorkers are the worker counts the parallel-vs-serial
// contract is pinned at: the serial path (the shared reference run),
// oversubscription, and a power-of-two in between.
var equivalenceWorkers = []int{1, 4, 8}

// legacySubtests maps drivers to the subtest names they had before the
// registry drove this suite, keeping their test IDs stable; drivers
// without an entry run under their registry name.
var legacySubtests = map[string]string{
	"fig2":                  "Fig2",
	"fig3":                  "Fig3",
	"fig6":                  "Fig6",
	"fig7":                  "Fig7",
	"ablation-burst-length": "AblationBurstLength",
	"ablation-mechanisms":   "AblationMechanisms",
	"detectors":             "DetectorComparison",
	"evasion":               "JitterEvasion",
	"defense":               "DefenseEvaluation",
	"crowd":                 "FlashCrowd",
	"attribution":           "FigAttribution",
	"planner":               "FigPlanner",
}

// subtestName is the driver's subtest name in the registry-driven suites.
func subtestName(driver string) string {
	if name, ok := legacySubtests[driver]; ok {
		return name
	}
	return driver
}

// fmt prints map keys in sorted order, so equal fingerprints mean equal
// results.
func fingerprint(res any) string { return fmt.Sprintf("%#v", res) }

// readArtifacts returns every CSV under dir keyed by relative path.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatalf("reading artifacts under %s: %v", dir, err)
	}
	return files
}

// compareArtifacts reports every CSV of ref that got lacks or differs in,
// and a differing artifact count.
func compareArtifacts(t *testing.T, what string, ref, got map[string][]byte) {
	t.Helper()
	if len(got) != len(ref) {
		t.Errorf("%s wrote %d artifacts, reference wrote %d", what, len(got), len(ref))
	}
	for name, want := range ref {
		data, ok := got[name]
		if !ok {
			t.Errorf("%s did not write %s", what, name)
			continue
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: artifact %s differs from the reference", what, name)
		}
	}
}

// TestSweepWorkerEquivalence pins the engine's core contract at the
// figure level: every registered driver produces byte-identical CSV
// artifacts, identical scalar results, and an identical summary for every
// worker count. A regression here means parallelism leaked into the
// results — the one thing the sweep engine exists to prevent.
func TestSweepWorkerEquivalence(t *testing.T) {
	for _, name := range DistDrivers() {
		name := name
		t.Run(subtestName(name), func(t *testing.T) {
			ref := localReference(t, name)
			for _, workers := range equivalenceWorkers[1:] {
				dir := t.TempDir()
				res, summary, err := RunLocal(name, Options{OutDir: dir, Quick: true, Seed: 7, Parallel: workers})
				if err != nil {
					t.Fatalf("%s with %d workers: %v", name, workers, err)
				}
				if got := fingerprint(res); got != ref.print {
					t.Errorf("%s scalars differ between %d and %d workers:\n%s\nvs\n%s",
						name, equivalenceWorkers[0], workers, ref.print, got)
				}
				if summary != ref.summary {
					t.Errorf("%s summary differs between %d and %d workers:\n%s\nvs\n%s",
						name, equivalenceWorkers[0], workers, ref.summary, summary)
				}
				compareArtifacts(t, fmt.Sprintf("%s with %d workers", name, workers), ref.files, readArtifacts(t, dir))
			}
		})
	}
}

// TestSweepProgressTotals pins the progress hook: one callback per run,
// ending exactly at (total, total), for serial and parallel execution.
func TestSweepProgressTotals(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls, lastDone, lastTotal int
		opts := Options{Quick: true, Seed: 7, Parallel: workers}
		opts.Progress = func(done, total int) {
			calls++
			lastDone, lastTotal = done, total
		}
		if _, err := Fig3(opts); err != nil {
			t.Fatalf("Fig3 with %d workers: %v", workers, err)
		}
		if calls == 0 || lastDone != lastTotal {
			t.Errorf("with %d workers: %d progress calls, final %d/%d; want final done == total",
				workers, calls, lastDone, lastTotal)
		}
	}
}
