package stats

import (
	"fmt"
	"math"
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

// Add appends an observation. Points keep insertion order, so callers
// that need them in time order must append them in time order.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if len(ts.Points) == cap(ts.Points) {
		ts.Points = grow(ts.a, ts.gen, &ts.a.ptFree, ts.Points, len(ts.Points)+1, ptBytes)
	}
	ts.Points = append(ts.Points, Point{T: t, V: v})
}

// Reset discards all points in place, keeping the backing storage and the
// name for reuse.
func (ts *TimeSeries) Reset() {
	ts.Points = ts.Points[:0]
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
