package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestRunOrdersResults pins the core contract: results come back in
// job-index order for every worker count, including worker counts far
// above the job count.
func TestRunOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4, 8, 64} {
		res, err := RunState(context.Background(), Options{Workers: workers}, 17, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != 17 {
			t.Fatalf("workers=%d: got %d results, want 17", workers, len(res))
		}
		for i, v := range res {
			if v != i*i {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunWorkerCountEquivalence runs a sweep whose jobs consume derived
// randomness and checks that the collected result is byte-identical for
// workers 1, 4, and 8 — the property every converted figure driver
// relies on.
func TestRunWorkerCountEquivalence(t *testing.T) {
	const base = int64(42)
	fingerprint := func(workers int) string {
		res, err := RunState(context.Background(), Options{Workers: workers}, 32, nil, nil, func(_ context.Context, _ struct{}, i int) (string, error) {
			rng := rand.New(rand.NewSource(DeriveSeed(base, i)))
			return fmt.Sprintf("%d:%d:%d", i, rng.Int63(), rng.Int63()), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return strings.Join(res, "|")
	}
	serial := fingerprint(1)
	for _, workers := range []int{4, 8} {
		if got := fingerprint(workers); got != serial {
			t.Errorf("workers=%d result differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

// TestRunZeroJobs checks the n = 0 fast path.
func TestRunZeroJobs(t *testing.T) {
	res, err := RunState(context.Background(), Options{}, 0, nil, nil, func(_ context.Context, _ struct{}, _ int) (int, error) {
		t.Fatal("job ran for n = 0")
		return 0, nil
	})
	if err != nil || res != nil {
		t.Fatalf("RunState(0 jobs) = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestRunRejectsBadInput covers nil jobs and negative counts.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := RunState[int, struct{}](context.Background(), Options{}, 3, nil, nil, nil); err == nil {
		t.Error("nil job accepted")
	}
	if _, err := RunState(context.Background(), Options{}, -1, nil, nil, func(_ context.Context, _ struct{}, _ int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative job count accepted")
	}
}

// TestRunErrorPropagation checks that a failing job surfaces its error
// wrapped with the job index, and that with one worker later jobs are
// never dispatched (serial first-error semantics).
func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	_, err := RunState(context.Background(), Options{Workers: 1}, 10, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) {
		ran = append(ran, i)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the job error", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Errorf("error %q does not name job 3", err)
	}
	if len(ran) != 4 {
		t.Errorf("serial sweep ran %v after the failure, want jobs 0-3 only", ran)
	}
}

// TestRunOneWorkerOnCaller checks that a one-worker sweep runs every job
// on the calling goroutine: no goroutine is started, so the count seen
// inside each job is the count before the call. A goroutine of an earlier
// test may still be exiting, so the count may fall but never rise.
func TestRunOneWorkerOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := RunState(context.Background(), Options{Workers: 1}, 5, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) {
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("job %d: %d goroutines, %d before the sweep", i, got, before)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunOneJobAllocs pins what a one-job stateless sweep allocates: the
// result, error and ran slices, the derived context and the worker
// closure's captures, and no goroutine, channel or WaitGroup waiter.
func TestRunOneJobAllocs(t *testing.T) {
	job := func(_ context.Context, _ struct{}, i int) (int, error) { return i, nil }
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := RunState(context.Background(), Options{Workers: 1}, 1, nil, nil, job); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != oneJobAllocs {
		t.Errorf("one-job sweep allocates %v times, want %d", allocs, oneJobAllocs)
	}
}

// oneJobAllocs is the exact allocation count of a one-job stateless
// sweep.
const oneJobAllocs = 11

// TestRunErrorLowestIndex checks that when several jobs fail under
// parallelism, the lowest-indexed failure wins — matching what the
// serial path would have reported.
func TestRunErrorLowestIndex(t *testing.T) {
	_, err := RunState(context.Background(), Options{Workers: 8}, 16, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) {
		return 0, fmt.Errorf("fail-%d", i)
	})
	if err == nil {
		t.Fatal("sweep with all-failing jobs returned nil error")
	}
	if !strings.Contains(err.Error(), "job 0") {
		t.Errorf("error %q, want the lowest-indexed failure (job 0)", err)
	}
}

// TestRunCancellation cancels the caller context mid-sweep and checks
// that Run returns the context error instead of a partial result.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := RunState(ctx, Options{Workers: 2}, 100, nil, nil, func(ctx context.Context, _ struct{}, i int) (int, error) {
		once.Do(cancel)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancellation = %v, want context.Canceled", err)
	}
}

// TestRunProgress checks the progress callback: serialized monotone
// counts ending at (total, total) on success.
func TestRunProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	opts := Options{Workers: 4, Progress: func(done, total int) {
		if total != 20 {
			t.Errorf("progress total = %d, want 20", total)
		}
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}}
	if _, err := RunState(context.Background(), opts, 20, nil, nil, func(_ context.Context, _ struct{}, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("progress fired %d times, want 20", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress counts %v not monotone", seen)
		}
	}
}

// TestWorkerCountResolution pins the Workers-resolution rules.
func TestWorkerCountResolution(t *testing.T) {
	if got := (Options{Workers: 5}).workerCount(3); got != 3 {
		t.Errorf("workerCount clamps to job count: got %d, want 3", got)
	}
	if got := (Options{Workers: 2}).workerCount(10); got != 2 {
		t.Errorf("workerCount honors Workers: got %d, want 2", got)
	}
	if got := (Options{}).workerCount(10); got < 1 {
		t.Errorf("default workerCount = %d, want >= 1", got)
	}
}

// TestDeriveSeedStability freezes the seed-derivation scheme: these
// values are part of the artifact format and must never change.
func TestDeriveSeedStability(t *testing.T) {
	cases := []struct {
		base  int64
		index int
		want  int64
	}{
		{0, 0, -2152535657050944081},
		{0, 1, 7960286522194355700},
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{-7, 3, 2940488688193949890},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.base, c.index); got != c.want {
			t.Errorf("DeriveSeed(%d, %d) = %d, want %d (frozen scheme changed!)", c.base, c.index, got, c.want)
		}
	}
}

// TestDeriveSeedDistinct checks that derived seeds do not collide across
// a realistic replication range, for several base seeds.
func TestDeriveSeedDistinct(t *testing.T) {
	for _, base := range []int64{0, 1, 42, -1, 1 << 40} {
		seen := make(map[int64]int, 4096)
		for i := 0; i < 4096; i++ {
			s := DeriveSeed(base, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("base %d: DeriveSeed collision between index %d and %d", base, prev, i)
			}
			if s == base {
				t.Errorf("base %d: DeriveSeed(base, %d) returned the base seed itself", base, i)
			}
			seen[s] = i
		}
	}
}
