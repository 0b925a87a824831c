package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// Point is one timestamped observation in virtual time.
type Point struct {
	T time.Duration `json:"t"`
	V float64       `json:"v"`
}

// TimeSeries is an append-mostly series of timestamped values, the raw
// material for every per-figure trace (queue lengths, CPU utilization,
// LLC misses, response times over time).
type TimeSeries struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`

	a   *Arena
	gen uint64
}

// NewTimeSeries returns an empty heap-backed named series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{Name: name}
}

// Add appends an observation. Out-of-order appends are tolerated; Sort must
// be called before window queries if order is not guaranteed by the caller.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if ts.a != nil && len(ts.Points) == cap(ts.Points) {
		ts.growPoints(len(ts.Points) + 1)
	}
	ts.Points = append(ts.Points, Point{T: t, V: v})
}

// Reset discards all points in place, keeping the backing storage and the
// name for reuse.
func (ts *TimeSeries) Reset() {
	ts.Points = ts.Points[:0]
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.Points) }

// Sort orders points by timestamp (stable, so equal timestamps keep
// insertion order).
func (ts *TimeSeries) Sort() {
	slices.SortStableFunc(ts.Points, func(a, b Point) int { return cmp.Compare(a.T, b.T) })
}

// Window returns the points with T in [from, to).
func (ts *TimeSeries) Window(from, to time.Duration) []Point {
	out := make([]Point, 0)
	for _, p := range ts.Points {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// Bucket is one resampled window of a time series.
type Bucket struct {
	Start time.Duration `json:"start"`
	Mean  float64       `json:"mean"`
	Max   float64       `json:"max"`
	Min   float64       `json:"min"`
	Count int           `json:"count"`
}

// Resample aggregates the series into fixed-width buckets covering
// [0, horizon). Empty buckets carry Count == 0 and zero aggregates. This is
// the core of the monitoring-granularity experiments (Fig 10): the same
// underlying signal resampled at 50 ms, 1 s, and 1 min.
func (ts *TimeSeries) Resample(width, horizon time.Duration) ([]Bucket, error) {
	if width <= 0 {
		return nil, fmt.Errorf("stats: resample width must be positive, got %v", width)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("stats: resample horizon must be positive, got %v", horizon)
	}
	n := int((horizon + width - 1) / width)
	buckets := make([]Bucket, n)
	sums := make([]float64, n)
	for i := range buckets {
		buckets[i].Start = time.Duration(i) * width
		buckets[i].Min = math.Inf(1)
		buckets[i].Max = math.Inf(-1)
	}
	for _, p := range ts.Points {
		if p.T < 0 || p.T >= horizon {
			continue
		}
		i := int(p.T / width)
		b := &buckets[i]
		b.Count++
		sums[i] += p.V
		if p.V > b.Max {
			b.Max = p.V
		}
		if p.V < b.Min {
			b.Min = p.V
		}
	}
	for i := range buckets {
		if buckets[i].Count == 0 {
			buckets[i].Min, buckets[i].Max = 0, 0
			continue
		}
		buckets[i].Mean = sums[i] / float64(buckets[i].Count)
	}
	return buckets, nil
}

// MaxValue returns the largest value in the series, or 0 when empty.
func (ts *TimeSeries) MaxValue() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	max := ts.Points[0].V
	for _, p := range ts.Points[1:] {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// MeanValue returns the unweighted mean of the series values, or 0 when
// empty.
func (ts *TimeSeries) MeanValue() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range ts.Points {
		sum += p.V
	}
	return sum / float64(len(ts.Points))
}

// BusyIntegrator accumulates busy time of a binary (busy/idle) resource and
// reports utilization over arbitrary windows. It is how the simulator turns
// "server busy from t1 to t2" into the CPU-utilization signals the paper's
// monitors sample.
type BusyIntegrator struct {
	transitions []Point // V is 1 for busy-start, 0 for busy-end
	busy        bool
	lastChange  time.Duration
	busyAccum   time.Duration
}

// NewBusyIntegrator returns an integrator that is idle at time zero.
func NewBusyIntegrator() *BusyIntegrator {
	return &BusyIntegrator{}
}

// SetBusy records a busy/idle transition at time t. Transitions must be fed
// in non-decreasing time order; duplicate states are ignored.
func (b *BusyIntegrator) SetBusy(t time.Duration, busy bool) {
	if busy == b.busy {
		return
	}
	if b.busy {
		b.busyAccum += t - b.lastChange
	}
	b.busy = busy
	b.lastChange = t
	v := 0.0
	if busy {
		v = 1.0
	}
	b.transitions = append(b.transitions, Point{T: t, V: v})
}

// TotalBusy returns the accumulated busy time up to time t.
func (b *BusyIntegrator) TotalBusy(t time.Duration) time.Duration {
	total := b.busyAccum
	if b.busy && t > b.lastChange {
		total += t - b.lastChange
	}
	return total
}

// Utilization returns the busy fraction of the window [from, to). It walks
// the transition log, so it is exact for any window regardless of how the
// monitors later sample it.
func (b *BusyIntegrator) Utilization(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	busy := time.Duration(0)
	state := false
	stateSince := time.Duration(0)
	for _, tr := range b.transitions {
		if tr.T >= to {
			break
		}
		newState := tr.V > 0.5
		if state && tr.T > from {
			start := stateSince
			if start < from {
				start = from
			}
			busy += tr.T - start
		}
		state = newState
		stateSince = tr.T
	}
	if state {
		start := stateSince
		if start < from {
			start = from
		}
		if to > start {
			busy += to - start
		}
	}
	return float64(busy) / float64(to-from)
}
