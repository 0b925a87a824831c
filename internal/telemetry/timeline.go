package telemetry

import (
	"fmt"
	"time"
)

// TimelinePoint aggregates the traces that closed inside one window.
type TimelinePoint struct {
	// Count is the number of traces closed in the window.
	Count int
	// Drops sums the drop counts of those traces.
	Drops int
	// SumRT / MaxRT aggregate client response time.
	SumRT time.Duration
	MaxRT time.Duration
	// SumQueue / MaxQueue aggregate total per-trace queueing time.
	SumQueue time.Duration
	MaxQueue time.Duration
}

// MeanRT returns the window's mean client response time.
func (p TimelinePoint) MeanRT() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.SumRT / time.Duration(p.Count)
}

// Timeline aggregates closed traces into fixed windows of one resolution.
// Two timelines at different resolutions make the paper's monitoring-
// blindness argument concrete: a transient RT spike that saturates a 50ms
// window averages away in a 1s window.
type Timeline struct {
	// Res is the window width.
	Res time.Duration

	base   time.Duration
	points []TimelinePoint
}

func newTimeline(res, horizon time.Duration) *Timeline {
	n := int(horizon/res) + 1
	return &Timeline{Res: res, points: make([]TimelinePoint, 0, n)}
}

// NewTimeline builds a standalone timeline covering [0, horizon] at the
// given resolution. The simulator's Tracer builds its own timelines; this
// constructor exists for offline assembly — the live collector books
// wall-clock attributions into the same structure so BlindnessRatio and
// the CSV export work identically on real runs.
func NewTimeline(res, horizon time.Duration) (*Timeline, error) {
	if res <= 0 {
		return nil, fmt.Errorf("telemetry: timeline resolution must be positive, got %v", res)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("telemetry: timeline horizon must be positive, got %v", horizon)
	}
	return newTimeline(res, horizon), nil
}

// Add books one closed trace into its window: end is the close time, rt
// the client response time, queue the trace's total queueing time, and
// drops its dropped-attempt count.
func (tl *Timeline) Add(end, rt, queue time.Duration, drops int) {
	tl.add(end, rt, queue, drops)
}

// reset clears the timeline and rebases window 0 at base.
func (tl *Timeline) reset(base time.Duration) {
	tl.base = base
	tl.points = tl.points[:0]
}

// add books one closed trace into its window. The timeline covers
// [base, base+horizon]; traces closing outside it (warmup remnants, the
// post-run drain phase) are dropped — folding the drain's late
// retransmission tails into the last window would distort it identically
// at every resolution.
func (tl *Timeline) add(end, rt, queue time.Duration, drops int) {
	if end < tl.base {
		return
	}
	idx := int((end - tl.base) / tl.Res)
	if idx >= cap(tl.points) {
		return
	}
	for len(tl.points) <= idx {
		tl.points = tl.points[:len(tl.points)+1]
		tl.points[len(tl.points)-1] = TimelinePoint{}
	}
	p := &tl.points[idx]
	p.Count++
	p.Drops += drops
	p.SumRT += rt
	if rt > p.MaxRT {
		p.MaxRT = rt
	}
	p.SumQueue += queue
	if queue > p.MaxQueue {
		p.MaxQueue = queue
	}
}

// Base returns the virtual time of window 0's left edge.
func (tl *Timeline) Base() time.Duration { return tl.base }

// Points returns the window aggregates (shared; do not mutate).
func (tl *Timeline) Points() []TimelinePoint { return tl.points }

// WindowStart returns the left edge of window i.
func (tl *Timeline) WindowStart(i int) time.Duration {
	return tl.base + time.Duration(i)*tl.Res
}

// PeakMeanRT returns the largest window-mean response time.
func (tl *Timeline) PeakMeanRT() time.Duration {
	m, _ := tl.peakMeanRT()
	return m
}

// peakMeanRT returns the largest window-mean response time and its window
// index (-1 when the timeline is empty).
func (tl *Timeline) peakMeanRT() (time.Duration, int) {
	var peak time.Duration
	idx := -1
	for i, p := range tl.points {
		if m := p.MeanRT(); m > peak {
			peak = m
			idx = i
		}
	}
	return peak, idx
}

// BlindnessRatio quantifies monitoring blindness: the peak window-mean
// response time at the fine resolution, divided by what the coarse
// monitor reports for the window covering that same instant. A transient
// millibottleneck yields a ratio well above 1 — the spike the fine
// monitor resolves is averaged into a full coarse window of ordinary
// traffic. Returns 0 when either view has no traffic at that instant.
func BlindnessRatio(fine, coarse *Timeline) float64 {
	fp, fi := fine.peakMeanRT()
	if fi < 0 {
		return 0
	}
	at := fine.WindowStart(fi)
	ci := int((at - coarse.base) / coarse.Res)
	if ci < 0 || ci >= len(coarse.points) {
		return 0
	}
	cm := coarse.points[ci].MeanRT()
	if cm <= 0 {
		return 0
	}
	return float64(fp) / float64(cm)
}

// RestoreTimeline rebuilds a read-only timeline from another timeline's
// Res, Base, and Points — for exporting a timeline that crossed a process
// boundary as plain values. It books no further traces.
func RestoreTimeline(res, base time.Duration, points []TimelinePoint) Timeline {
	return Timeline{Res: res, base: base, points: points}
}
