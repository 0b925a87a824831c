package stats

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"memca/internal/sweep"
)

// arenaJob is the stress kernel: per-worker arena, per-job reset, quantile
// over a seed-derived stream — the exact shape the figure drivers run.
func arenaJob(a *Arena, i int) time.Duration {
	defer a.Reset()
	rng := rand.New(rand.NewSource(sweep.DeriveSeed(41, i)))
	s := a.Sample(128)
	for j := 0; j < 1500; j++ {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		s.Add(d)
	}
	return s.Quantile(0.999)
}

// TestRaceArenaReuseMidSweepCancellation stresses per-worker arena reuse
// under `go test -race`: a sweep is canceled partway through, which must
// release every arena back to the process pool (sweep.RunState releases at
// worker exit on cancellation too), and an immediately following sweep
// reusing those warm arenas must produce the serial results bit for bit.
func TestRaceArenaReuseMidSweepCancellation(t *testing.T) {
	const jobs = 200
	job := func(_ context.Context, a *Arena, i int) (time.Duration, error) {
		return arenaJob(a, i), nil
	}

	// Serial reference, on a fresh arena outside the pool.
	want := make([]time.Duration, jobs)
	ref := NewArena()
	for i := range want {
		want[i] = arenaJob(ref, i)
	}

	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		cutoff := 20 * (round + 1)
		n := 0
		_, err := sweep.RunState(ctx, sweep.Options{
			Workers: 8,
			// Progress calls are serialized, so counting here is safe.
			Progress: func(done, total int) {
				n++
				if n == cutoff {
					cancel()
				}
			},
		}, jobs, GetArena, PutArena, job)
		cancel()
		if err == nil {
			t.Fatalf("round %d: canceled sweep reported success", round)
		}

		// The interrupted workers must have returned their arenas; reusing
		// them may not perturb results.
		for _, workers := range []int{1, 4, 8} {
			got, err := sweep.RunState(context.Background(), sweep.Options{Workers: workers},
				jobs, GetArena, PutArena, job)
			if err != nil {
				t.Fatalf("round %d workers=%d: %v", round, workers, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d workers=%d: results diverge after arena reuse", round, workers)
			}
		}
	}
}
