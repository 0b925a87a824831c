package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/quick_digests.txt with current output")

// digestDrivers are the quick figures whose CSVs pin the client
// retransmission paths and the victim's CPU signal: fig2 runs closed-loop
// generators, fig6, fig7 and ablation-mechanisms open-loop Poisson
// sources, and fig8 the feedback probe next to the generator; fig9,
// fig10, detectors, defense and evasion sample the bottleneck tier's
// utilization, and ablation-service-distribution rebuilds the default
// topology with other service-time distributions.
var digestDrivers = []string{
	"fig2", "fig6", "fig7", "ablation-mechanisms", "fig8",
	"fig9", "fig10", "detectors", "defense", "evasion", "ablation-service-distribution",
}

// TestQuickArtifactDigests pins the sha256 of every quick CSV of
// digestDrivers at the serial path against testdata/quick_digests.txt.
// The digests are an artifact contract: a refactor of the simulator must
// leave every byte of these figures unchanged. Regenerate deliberately
// with: go test ./internal/figures -run TestQuickArtifactDigests -update
func TestQuickArtifactDigests(t *testing.T) {
	var lines []string
	for _, name := range digestDrivers {
		dir := t.TempDir()
		if _, _, err := RunLocal(name, Options{OutDir: dir, Quick: true, Seed: 1, Parallel: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for rel, data := range readArtifacts(t, dir) {
			sum := sha256.Sum256(data)
			lines = append(lines, name+"/"+filepath.ToSlash(rel)+" "+hex.EncodeToString(sum[:]))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "quick_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("quick CSV digests drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
