package live

import (
	"fmt"
	"sync"
	"time"

	"memca/internal/telemetry"
)

// WindowTracker maintains a rolling wall-clock feature window: the live,
// always-on analogue of the tracer's FeatureSeries. Observations land in
// the current window; when an observation (or a reader) crosses a window
// boundary, the filled window is promoted to "last completed" and a fresh
// one starts. A monitoring scraper therefore always reads one whole
// window's features — never a partially filled one.
//
// The tracker aggregates whatever its caller can observe. A single tier
// sees its own queue wait, service time, and sheds, but not the client's
// retransmission wait, which only the assembled cross-tier attribution
// carries.
type WindowTracker struct {
	res  time.Duration
	tail time.Duration

	mu sync.Mutex
	// epoch anchors window 0; windows are indexed by (now - epoch) / res.
	epoch   time.Time
	started bool
	curIdx  int64
	cur     telemetry.WindowFeatures
	lastIdx int64
	last    telemetry.WindowFeatures
	hasLast bool
}

// NewWindowTracker builds a tracker with the given window width and
// tail-over threshold (0 disables the tail count).
func NewWindowTracker(res, tailOver time.Duration) (*WindowTracker, error) {
	if res <= 0 {
		return nil, fmt.Errorf("live: window width must be positive, got %v", res)
	}
	if tailOver < 0 {
		return nil, fmt.Errorf("live: tail-over threshold must be >= 0, got %v", tailOver)
	}
	return &WindowTracker{res: res, tail: tailOver}, nil
}

// Res returns the window width.
func (t *WindowTracker) Res() time.Duration { return t.res }

// rotate advances to now's window, promoting the current window to last
// if the boundary was crossed. Callers hold t.mu.
func (t *WindowTracker) rotate(now time.Time) {
	if !t.started {
		t.epoch = now
		t.started = true
		return
	}
	idx := int64(now.Sub(t.epoch) / t.res)
	if idx <= t.curIdx {
		return
	}
	// The most recently completed window is idx-1: the one being filled
	// when exactly one boundary passed, an empty one when the tracker
	// idled across several windows.
	t.last = t.cur
	t.lastIdx = t.curIdx
	if idx > t.curIdx+1 {
		t.last = telemetry.WindowFeatures{}
		t.lastIdx = idx - 1
	}
	t.hasLast = true
	t.cur = telemetry.WindowFeatures{}
	t.curIdx = idx
}

// Observe books one completed (or shed) request at wall-clock time now:
// rt is the observed response time, queue/service/retransWait the
// components the caller can attribute, attempts/drops its submit and
// rejection counts.
func (t *WindowTracker) Observe(now time.Time, rt, queue, service, retransWait time.Duration, attempts, drops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rotate(now)
	t.cur.Observe(rt, queue, service, retransWait, attempts, drops, t.tail)
}

// Last returns the most recently completed window and its start offset
// from the tracker's epoch. The boolean is false until a first window has
// completed. Passing the current time lets a reader complete a window
// that has elapsed with no observations since.
func (t *WindowTracker) Last(now time.Time) (telemetry.WindowFeatures, time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		t.rotate(now)
	}
	if !t.hasLast {
		return telemetry.WindowFeatures{}, 0, false
	}
	return t.last, time.Duration(t.lastIdx) * t.res, true
}
