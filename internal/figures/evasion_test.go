package figures

import (
	"testing"
	"time"
)

func TestJitterEvasion(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*EvasionResult]("evasion", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points", len(res.Points))
	}
	noJitter := res.Points[0]
	maxJitter := res.Points[len(res.Points)-1]

	// Damage survives jitter at every level (mean duty unchanged).
	for _, p := range res.Points {
		if p.ClientP95 < time.Second {
			t.Errorf("jitter %v: p95 %v, want >= 1s", p.Jitter, p.ClientP95)
		}
	}
	// The periodic signature erodes with jitter.
	if noJitter.Periodicity < 0.3 {
		t.Errorf("unjittered periodicity %v, want strong", noJitter.Periodicity)
	}
	if maxJitter.Periodicity > noJitter.Periodicity/2 {
		t.Errorf("jitter did not erode periodicity: %v -> %v", noJitter.Periodicity, maxJitter.Periodicity)
	}
	// The unjittered attack is classified. (The episode classifier is
	// notably robust to jitter — the burst/RTO-echo structure keeps
	// inter-episode gaps regular even when burst starts are randomized —
	// while the spectral cue above collapses; see EXPERIMENTS.md.)
	if !noJitter.Classified {
		t.Error("unjittered attack not classified")
	}
	requireFiles(t, opts.OutDir, "evasion_jitter.csv")
}
