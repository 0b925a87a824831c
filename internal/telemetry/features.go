package telemetry

import (
	"fmt"
	"time"
)

// WindowFeatures aggregates the traces that closed inside one window:
// their response times and peaks (the monitoring view a latency timeline
// draws) and their attribution components (the streaming detection
// features the paper's stealthiness analysis says CPU sampling cannot
// see). Raw sums, maxima and counts are stored; the share accessors derive
// the normalized features on read, so booking a closed trace performs no
// divisions and no allocations.
type WindowFeatures struct {
	// Count is the number of traces closed in the window.
	Count int
	// Attempts and Drops sum the submit and rejected-attempt counts of
	// those traces (drop rate = Drops / Attempts).
	Attempts int
	Drops    int
	// TailOver counts closed traces whose response time reached the
	// series' tail threshold — the per-window damage indicator.
	TailOver int
	// SumRT / MaxRT aggregate client response time.
	SumRT time.Duration
	MaxRT time.Duration
	// SumQueue / SumService / SumRetransWait sum the per-trace critical-
	// path components (all tiers folded together); MaxQueue is the largest
	// per-trace queueing total.
	SumQueue       time.Duration
	MaxQueue       time.Duration
	SumService     time.Duration
	SumRetransWait time.Duration
}

// MeanRT returns the window's mean client response time.
func (w WindowFeatures) MeanRT() time.Duration {
	if w.Count == 0 {
		return 0
	}
	return w.SumRT / time.Duration(w.Count)
}

// RetransShare is the fraction of the window's summed response time spent
// waiting between a drop and its resubmission. Under a MemCA attack this
// share dominates (the attacked >=p99 tail is ~97% retransmission wait);
// benign overloads — flash crowds included — keep it near zero.
func (w WindowFeatures) RetransShare() float64 {
	if w.SumRT <= 0 {
		return 0
	}
	return float64(w.SumRetransWait) / float64(w.SumRT)
}

// QueueShare is the fraction of summed response time spent queued.
func (w WindowFeatures) QueueShare() float64 {
	if w.SumRT <= 0 {
		return 0
	}
	return float64(w.SumQueue) / float64(w.SumRT)
}

// ServiceShare is the fraction of summed response time spent in service.
func (w WindowFeatures) ServiceShare() float64 {
	if w.SumRT <= 0 {
		return 0
	}
	return float64(w.SumService) / float64(w.SumRT)
}

// DropRate is the fraction of submitted attempts that were rejected.
func (w WindowFeatures) DropRate() float64 {
	if w.Attempts <= 0 {
		return 0
	}
	return float64(w.Drops) / float64(w.Attempts)
}

// Observe folds one closed trace into the window: rt is the client
// response time, queue/service/retransWait its summed critical-path
// components, attempts/drops its submit and rejection counts. tail is the
// TailOver threshold (0 disables the count). FeatureSeries books through
// this; the live window tracker books wall-clock observations directly.
//
//memca:hotpath
func (w *WindowFeatures) Observe(rt, queue, service, retransWait time.Duration, attempts, drops int, tail time.Duration) {
	w.Count++
	w.Attempts += attempts
	w.Drops += drops
	if tail > 0 && rt >= tail {
		w.TailOver++
	}
	w.SumRT += rt
	if rt > w.MaxRT {
		w.MaxRT = rt
	}
	w.SumQueue += queue
	if queue > w.MaxQueue {
		w.MaxQueue = queue
	}
	w.SumService += service
	w.SumRetransWait += retransWait
}

// FeatureSeries aggregates closed traces into fixed windows of
// WindowFeatures, incrementally as the tracer closes slots. It is
// pre-sized at construction for the full horizon, so the booking path
// performs zero heap allocations in steady state. Two series at different
// widths make the paper's monitoring-blindness argument concrete: a
// transient RT spike that saturates a 50ms window averages away in a 1s
// window (BlindnessRatio).
type FeatureSeries struct {
	// Res is the window width.
	Res time.Duration
	// TailThreshold is the response time at or above which a closed trace
	// counts toward the window's TailOver feature; zero disables the
	// count.
	TailThreshold time.Duration

	base    time.Duration
	windows []WindowFeatures
}

func newFeatureSeries(res, horizon, tailOver time.Duration) *FeatureSeries {
	n := int(horizon/res) + 1
	return &FeatureSeries{Res: res, TailThreshold: tailOver, windows: make([]WindowFeatures, 0, n)}
}

// NewFeatureSeries builds a standalone feature series covering
// [0, horizon]. The simulator's Tracer builds its own series; the live
// report books wall-clock attributions into standalone ones, so
// BlindnessRatio and the CSV exports work identically on real runs.
func NewFeatureSeries(res, horizon, tailOver time.Duration) (*FeatureSeries, error) {
	if res <= 0 {
		return nil, fmt.Errorf("telemetry: feature window must be positive, got %v", res)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("telemetry: feature horizon must be positive, got %v", horizon)
	}
	if tailOver < 0 {
		return nil, fmt.Errorf("telemetry: tail-over threshold must be >= 0, got %v", tailOver)
	}
	return newFeatureSeries(res, horizon, tailOver), nil
}

// Add books one closed trace: end is the close time, rt the client
// response time, queue/service/retransWait the trace's summed critical-
// path components, and attempts/drops its submit and rejection counts.
// The series covers [base, base+horizon]; traces closing outside it
// (warmup remnants, the post-run drain) are dropped — folding the drain's
// late retransmission tails into the last window would distort it
// identically at every width.
//
//memca:hotpath
func (fs *FeatureSeries) Add(end, rt, queue, service, retransWait time.Duration, attempts, drops int) {
	if end < fs.base {
		return
	}
	idx := int((end - fs.base) / fs.Res)
	if idx >= cap(fs.windows) {
		return
	}
	for len(fs.windows) <= idx {
		fs.windows = fs.windows[:len(fs.windows)+1]
		fs.windows[len(fs.windows)-1] = WindowFeatures{}
	}
	fs.windows[idx].Observe(rt, queue, service, retransWait, attempts, drops, fs.TailThreshold)
}

// reset clears the series and rebases window 0 at base.
func (fs *FeatureSeries) reset(base time.Duration) {
	fs.base = base
	fs.windows = fs.windows[:0]
}

// Base returns the virtual time of window 0's left edge.
func (fs *FeatureSeries) Base() time.Duration { return fs.base }

// Windows returns the per-window features (shared; do not mutate).
func (fs *FeatureSeries) Windows() []WindowFeatures { return fs.windows }

// WindowStart returns the left edge of window i.
func (fs *FeatureSeries) WindowStart(i int) time.Duration {
	return fs.base + time.Duration(i)*fs.Res
}

// PeakMeanRT returns the largest window-mean response time.
func (fs *FeatureSeries) PeakMeanRT() time.Duration {
	m, _ := fs.peakMeanRT()
	return m
}

// peakMeanRT returns the largest window-mean response time and its window
// index (-1 when the series is empty).
func (fs *FeatureSeries) peakMeanRT() (time.Duration, int) {
	var peak time.Duration
	idx := -1
	for i, w := range fs.windows {
		if m := w.MeanRT(); m > peak {
			peak = m
			idx = i
		}
	}
	return peak, idx
}

// BlindnessRatio quantifies monitoring blindness: the peak window-mean
// response time of this (fine) series, divided by what the coarse series
// reports for the window covering that same instant. A transient
// millibottleneck yields a ratio well above 1 — the spike the fine
// monitor resolves is averaged into a full coarse window of ordinary
// traffic. Returns 0 when either view has no traffic at that instant.
func (fs *FeatureSeries) BlindnessRatio(coarse *FeatureSeries) float64 {
	fp, fi := fs.peakMeanRT()
	if fi < 0 {
		return 0
	}
	at := fs.WindowStart(fi)
	ci := int((at - coarse.base) / coarse.Res)
	if ci < 0 || ci >= len(coarse.windows) {
		return 0
	}
	cm := coarse.windows[ci].MeanRT()
	if cm <= 0 {
		return 0
	}
	return float64(fp) / float64(cm)
}

// RestoreFeatureSeries rebuilds a read-only feature series from another
// series' Res, TailThreshold, Base, and Windows — for detecting on or
// exporting a series that crossed a process boundary as plain values. It
// books no further traces.
func RestoreFeatureSeries(res, tailThreshold, base time.Duration, windows []WindowFeatures) FeatureSeries {
	return FeatureSeries{Res: res, TailThreshold: tailThreshold, base: base, windows: windows}
}
