package walltimer

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"
)

func newTimer(t *testing.T) *Timer {
	t.Helper()
	tm, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := tm.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return tm
}

// TestWaitResolution is the reason the package exists: a 200 µs wait
// lasts about 200 µs, not the ~1.1 ms a time.After wait takes on an idle
// Linux process.
func TestWaitResolution(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("sub-millisecond resolution is a property of the timerfd path")
	}
	tm := newTimer(t)
	const d = 200 * time.Microsecond
	waits := make([]time.Duration, 50)
	for i := range waits {
		start := time.Now()
		if !tm.Wait(context.Background(), d) {
			t.Fatalf("wait %d did not complete", i)
		}
		waits[i] = time.Since(start)
		if waits[i] < d {
			t.Fatalf("wait %d lasted %v, shorter than %v", i, waits[i], d)
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if p50 := waits[len(waits)/2]; p50 >= 600*time.Microsecond {
		t.Errorf("median Wait(%v) took %v, want < 600µs", d, p50)
	}
}

func TestWaitCancelledMidWait(t *testing.T) {
	tm := newTimer(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if tm.Wait(ctx, 10*time.Second) {
		t.Fatal("Wait reported completion after its context was cancelled")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancelled Wait returned after %v", took)
	}
	// The timer stays usable after a cancelled wait.
	if !tm.Wait(context.Background(), time.Millisecond) {
		t.Fatal("Wait after a cancelled wait did not complete")
	}
}

func TestWaitCancelledContext(t *testing.T) {
	tm := newTimer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tm.Wait(ctx, time.Hour) {
		t.Fatal("Wait on a cancelled context reported completion")
	}
	if !tm.Wait(context.Background(), 0) {
		t.Fatal("a zero wait on a live context must complete")
	}
}

// TestLateCancelNeverShortensNextWait races each wait's cancellation with
// its expiry. A cancellation that lands after the expiry re-arms the timer
// to fire at once; that re-arm must be over before Wait returns, or it
// would cut the next wait short. The canceller waits on a Timer of its
// own, so its cancellations land within tens of microseconds either side
// of the expiry (time.Sleep would land them a millisecond late).
func TestLateCancelNeverShortensNextWait(t *testing.T) {
	tm, canceller := newTimer(t), newTimer(t)
	const d, next = 100 * time.Microsecond, 300 * time.Microsecond
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		go func() {
			defer close(cancelled)
			canceller.Wait(context.Background(), d+time.Duration(i%9-4)*10*time.Microsecond)
			cancel()
		}()
		tm.Wait(ctx, d)
		<-cancelled
		start := time.Now()
		if !tm.Wait(context.Background(), next) {
			t.Fatalf("iteration %d: the uncancellable wait did not complete", i)
		}
		if took := time.Since(start); took < next {
			t.Fatalf("iteration %d: Wait(%v) returned after %v", i, next, took)
		}
	}
}

func TestCloseUnblocksWaiter(t *testing.T) {
	tm, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	done := make(chan bool)
	go func() { done <- tm.Wait(context.Background(), time.Hour) }()
	time.Sleep(10 * time.Millisecond)
	if err := tm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case completed := <-done:
		if completed {
			t.Fatal("Wait interrupted by Close reported completion")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the pending Wait")
	}
	if tm.Wait(context.Background(), time.Hour) {
		t.Fatal("Wait on a closed timer reported completion")
	}
	if err := tm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
