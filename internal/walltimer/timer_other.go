//go:build !linux

package walltimer

import (
	"context"
	"sync"
	"time"
)

// Timer waits on a fresh runtime timer each time; only Linux has the
// timerfd path.
type Timer struct {
	closed    chan struct{}
	closeOnce sync.Once
}

// New creates a timer.
func New() (*Timer, error) {
	return &Timer{closed: make(chan struct{})}, nil
}

// Wait blocks for d, or until ctx ends or the timer is closed. It reports
// whether the full d elapsed. A Timer serves one Wait at a time.
func (t *Timer) Wait(ctx context.Context, d time.Duration) (completed bool) {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	// A timer per wait: a reused one could deliver an expiry that raced
	// with a cancellation to the next wait.
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
	case <-t.closed:
	}
	return false
}

// Close wakes a pending Wait, which returns false, as does every later
// one. Closing a closed Timer does nothing.
func (t *Timer) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	return nil
}
