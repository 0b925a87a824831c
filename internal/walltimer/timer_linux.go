package walltimer

import (
	"context"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, which package syscall does not name.
const clockMonotonic = 1

// Timer is a one-shot timerfd registered with the runtime's netpoller: a
// waiting goroutine parks on the fd's readiness, and the poller wakes it
// when the kernel's high-resolution timer fires.
//
// The current Wait's state lives in the Timer, and the callbacks handed
// to the raw connection and to context.AfterFunc are bound once in New,
// so a Wait allocates only what AfterFunc itself needs.
type Timer struct {
	f    *os.File
	conn syscall.RawConn

	// spec is the setting the current Wait arms.
	spec itimerspec
	// armed is set by the current Wait's first read callback; err is the
	// failure that ended the wait, if any.
	armed bool
	err   error
	// ctx and stop are the current Wait's context and the stop function
	// of its cancellation hook (nil when ctx cannot be cancelled).
	ctx  context.Context
	stop func() bool
	buf  [8]byte

	onReadable func(fd uintptr) bool
	fireFn     func(fd uintptr)
	cancelFn   func()
	// fired receives one value each time the cancellation hook finishes.
	fired chan struct{}
}

// itimerspec mirrors struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// immediate fires at once: the smallest non-zero relative expiry (a zero
// it_value would disarm the timer instead).
var immediate = itimerspec{value: syscall.Timespec{Nsec: 1}}

// New creates a timer on a fresh non-blocking, close-on-exec timerfd.
func New() (*Timer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("walltimer: timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "timerfd")
	conn, err := f.SyscallConn()
	if err != nil {
		_ = f.Close() // the SyscallConn failure is the error to report
		return nil, fmt.Errorf("walltimer: timerfd raw conn: %w", err)
	}
	t := &Timer{f: f, conn: conn, fired: make(chan struct{}, 1)}
	t.onReadable = t.readable
	t.fireFn = t.fire
	t.cancelFn = t.cancel
	return t, nil
}

// Wait blocks for d, or until ctx ends or the timer is closed. It reports
// whether the full d elapsed; a cancellation that races with the expiry
// may report false. A Timer serves one Wait at a time.
func (t *Timer) Wait(ctx context.Context, d time.Duration) (completed bool) {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	t.spec = itimerspec{value: syscall.NsecToTimespec(d.Nanoseconds())}
	t.armed, t.err, t.ctx = false, nil, ctx
	err := t.conn.Read(t.onReadable)
	if err == nil {
		err = t.err
	}
	if t.stop != nil && !t.stop() {
		// The hook has started: let it finish its re-arm now, so it can
		// never cut short the next Wait on this timer.
		<-t.fired
		err = context.Canceled
	}
	t.ctx, t.stop = nil, nil
	return err == nil
}

// readable is the raw read callback. The first call arms the timer and
// parks without reading: nothing can have expired yet, and arming only
// after the poller has reset the fd's readiness means no expiry edge is
// lost. Later calls read the expiry count, and park again on EAGAIN (a
// stale readiness edge from an earlier wait).
func (t *Timer) readable(fd uintptr) bool {
	if !t.armed {
		t.armed = true
		if t.err = settime(fd, &t.spec); t.err != nil {
			return true
		}
		if t.ctx.Done() != nil {
			t.stop = context.AfterFunc(t.ctx, t.cancelFn)
		}
		return false
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&t.buf[0])), uintptr(len(t.buf)))
	if errno == syscall.EAGAIN {
		return false
	}
	if errno != 0 {
		t.err = fmt.Errorf("walltimer: read timerfd: %w", errno)
	}
	return true
}

// cancel is the context.AfterFunc hook: it re-arms the timer to expire
// at once, which wakes the waiter.
func (t *Timer) cancel() {
	// Control fails only on a closed timer, whose waiter Close has
	// already woken.
	_ = t.conn.Control(t.fireFn)
	t.fired <- struct{}{}
}

// fire drops its error for the same reason: timerfd_settime with a valid
// setting fails only on a closed fd.
func (t *Timer) fire(fd uintptr) { _ = settime(fd, &immediate) }

// settime arms the timerfd with a relative setting. Re-arming discards
// any expiry count not yet read.
//
// It and the expiry read are raw syscalls: neither can block (the fd is
// non-blocking), and syscall.Syscall's scheduler hand-off would wake an
// idle sysmon thread on every call.
func settime(fd uintptr, spec *itimerspec) error {
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(spec)), 0, 0, 0)
	if errno != 0 {
		return fmt.Errorf("walltimer: timerfd_settime: %w", errno)
	}
	return nil
}

// Close releases the timerfd. A pending Wait wakes and returns false, as
// does every later one. Closing a closed Timer does nothing.
func (t *Timer) Close() error {
	if err := t.f.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("walltimer: %w", err)
	}
	return nil
}
