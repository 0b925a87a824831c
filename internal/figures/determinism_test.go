package figures

import (
	"fmt"
	"testing"
)

// fig2Fingerprint runs the full Figure 2 pipeline (complete experiment
// wiring: workload, attack bursts, memory model, queueing network) and
// serializes the result. fmt prints map keys in
// sorted order, so equal fingerprints mean equal results.
func fig2Fingerprint(t *testing.T, seed int64) string {
	t.Helper()
	res, err := runAs[*Fig2Result]("fig2", Options{OutDir: "", Quick: true, Seed: seed})
	if err != nil {
		t.Fatalf("Fig2(seed=%d): %v", seed, err)
	}
	return fmt.Sprintf("%#v", *res)
}

// TestFig2SeedDeterminism pins seed-for-seed reproducibility of a full
// figure pipeline end to end: same seed, byte-identical result; different
// seed, different result.
func TestFig2SeedDeterminism(t *testing.T) {
	a := fig2Fingerprint(t, 11)
	b := fig2Fingerprint(t, 11)
	if a != b {
		t.Errorf("same seed produced different Fig2 results:\n%s\nvs\n%s", a, b)
	}
	c := fig2Fingerprint(t, 12)
	if a == c {
		t.Error("different seeds produced byte-identical Fig2 results; randomness is not flowing from the seed")
	}
}
