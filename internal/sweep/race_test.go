package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// spin burns a rand-chosen number of scheduling points so that job
// completion order varies between runs without touching the wall clock:
// under `go test -race` this shakes out ordering assumptions in the
// dispatch/collect paths.
func spin(rng *rand.Rand) int {
	acc := 0
	for i, n := 0, rng.Intn(2000); i < n; i++ {
		acc += i
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	return acc
}

// TestRaceManySmallJobs floods the pool with far more jobs than workers,
// each with injected-rand latency, and checks ordered delivery plus a
// consistent progress count. Run under -race via `make race`.
func TestRaceManySmallJobs(t *testing.T) {
	const jobs = 500
	for _, workers := range []int{2, 4, 16} {
		var progressCalls atomic.Int64
		opts := Options{Workers: workers, Progress: func(done, total int) {
			progressCalls.Add(1)
			if done < 1 || done > total || total != jobs {
				t.Errorf("progress (%d, %d) out of range", done, total)
			}
		}}
		res, err := RunState(context.Background(), opts, jobs, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) {
			rng := rand.New(rand.NewSource(DeriveSeed(7, i)))
			spin(rng)
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range res {
			if v != i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
		if progressCalls.Load() != jobs {
			t.Errorf("workers=%d: %d progress calls, want %d", workers, progressCalls.Load(), jobs)
		}
	}
}

// TestRaceCancellationMidSweep cancels the sweep from inside a job at a
// rand-chosen point while other workers are mid-job: no result slice
// corruption, no deadlock, and the context error is surfaced.
func TestRaceCancellationMidSweep(t *testing.T) {
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(DeriveSeed(99, round)))
		cancelAt := rng.Intn(200)
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunState(ctx, Options{Workers: 8}, 200, nil, nil, func(ctx context.Context, _ struct{}, i int) (int, error) {
			jobRng := rand.New(rand.NewSource(DeriveSeed(int64(round), i)))
			spin(jobRng)
			if i == cancelAt {
				cancel()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
	}
}

// TestRaceErrorsUnderContention makes a rand-chosen subset of jobs fail
// concurrently and checks the lowest-indexed failure is reported while
// the pool shuts down cleanly.
func TestRaceErrorsUnderContention(t *testing.T) {
	for round := 0; round < 10; round++ {
		rng := rand.New(rand.NewSource(DeriveSeed(123, round)))
		failFrom := 1 + rng.Intn(50)
		_, err := RunState(context.Background(), Options{Workers: 8}, 300, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) {
			jobRng := rand.New(rand.NewSource(DeriveSeed(int64(round)+1000, i)))
			spin(jobRng)
			if i >= failFrom {
				return 0, fmt.Errorf("planned failure %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("round %d: no error surfaced", round)
		}
		// Every job below failFrom succeeds and failFrom is always
		// dispatched before any later failure, so the reported error
		// is deterministically failFrom's.
		if want := fmt.Sprintf("sweep: job %d: planned failure %d", failFrom, failFrom); err.Error() != want {
			t.Fatalf("round %d: error %q, want %q", round, err, want)
		}
	}
}
