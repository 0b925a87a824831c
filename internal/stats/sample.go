// Package stats provides the statistics kernels used throughout the MemCA
// reproduction: exact percentiles, level integrators (busy servers, queue
// occupancy, adversary activity), resampled time series, the arena that
// recycles their storage across runs, and the EWMA/CUSUM primitives that
// back the interference detectors.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Sample collects duration observations and answers exact quantile queries.
// Observations are kept in insertion order; queries sort lazily into a
// separate slab, which is reused (and only re-filled after new Adds), so a
// query burst like Summarize sorts once.
//
// Samples come from an Arena (Arena.Sample): they grow by trading up
// through the arena's size classes and are invalidated by Arena.Reset.
type Sample struct {
	values []time.Duration
	// sorted caches an ascending copy of values; it is valid iff
	// sortedN == len(values).
	sorted  []time.Duration
	sortedN int

	a   *Arena
	gen uint64
}

// Add records one observation.
//
//memca:hotpath
func (s *Sample) Add(v time.Duration) {
	if len(s.values) == cap(s.values) {
		s.values = grow(s.a, s.gen, &s.a.durFree, s.values, len(s.values)+1, durBytes)
	}
	s.values = append(s.values, v)
}

// Merge appends o's observations to s in o's insertion order: the same
// result as calling Add on each of o.Values(), without the copy. s grows
// at most once. s.Merge(s) doubles s.
func (s *Sample) Merge(o *Sample) {
	n := o.Len()
	if len(s.values)+n > cap(s.values) {
		s.values = grow(s.a, s.gen, &s.a.durFree, s.values, len(s.values)+n, durBytes)
	}
	s.values = append(s.values, o.values...)
}

// Len returns the number of observations. Like every query, it panics on
// a handle from before the arena's last Reset.
func (s *Sample) Len() int { s.a.check(s.gen); return len(s.values) }

// Reset discards all observations in place, keeping the backing storage
// for reuse (e.g. after a warm-up phase).
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sortedN = 0
}

// Values returns a copy of the raw observations in insertion order,
// regardless of any quantile queries in between.
func (s *Sample) Values() []time.Duration {
	cp := make([]time.Duration, s.Len())
	copy(cp, s.values)
	return cp
}

// sortedView returns the observations in ascending order, re-sorting the
// sorted slab only when observations arrived since the last query.
func (s *Sample) sortedView() []time.Duration {
	n := s.Len()
	if s.sortedN == n {
		return s.sorted[:n]
	}
	if cap(s.sorted) < n {
		s.a.putDur(s.sorted)
		s.sorted = s.a.getDur(n)
	}
	s.sorted = s.sorted[:n]
	copy(s.sorted, s.values)
	sortDurations(s.sorted, s.a.sortScratch(n))
	s.sortedN = n
	return s.sorted
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics. An empty sample yields 0.
func (s *Sample) Quantile(q float64) time.Duration {
	if s.Len() == 0 {
		return 0
	}
	v := s.sortedView()
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo] + time.Duration(frac*float64(v[hi]-v[lo]))
}

// Percentile returns the p-th percentile, p in [0, 100].
func (s *Sample) Percentile(p float64) time.Duration { return s.Quantile(p / 100) }

// Mean returns the arithmetic mean, or 0 for an empty sample. The sum
// runs in insertion order.
func (s *Sample) Mean() time.Duration {
	if s.Len() == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(s.values)))
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() time.Duration {
	if s.Len() == 0 {
		return 0
	}
	v := s.sortedView()
	return v[len(v)-1]
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() time.Duration {
	if s.Len() == 0 {
		return 0
	}
	return s.sortedView()[0]
}

// PercentileCurve evaluates the sample at each requested percentile. It is
// the shape used by the paper's Figure 2 and Figure 7 plots.
func (s *Sample) PercentileCurve(percentiles []float64) []time.Duration {
	out := make([]time.Duration, len(percentiles))
	for i, p := range percentiles {
		out[i] = s.Percentile(p)
	}
	return out
}

// Summary is a compact description of a distribution of response times.
type Summary struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean"`
	Min   time.Duration `json:"min"`
	P50   time.Duration `json:"p50"`
	P90   time.Duration `json:"p90"`
	P95   time.Duration `json:"p95"`
	P98   time.Duration `json:"p98"`
	P99   time.Duration `json:"p99"`
	P999  time.Duration `json:"p999"`
	Max   time.Duration `json:"max"`
}

// Summarize computes the standard summary used across the experiments.
func (s *Sample) Summarize() Summary {
	return Summary{
		Count: s.Len(),
		Mean:  s.Mean(),
		Min:   s.Min(),
		P50:   s.Percentile(50),
		P90:   s.Percentile(90),
		P95:   s.Percentile(95),
		P98:   s.Percentile(98),
		P99:   s.Percentile(99),
		P999:  s.Percentile(99.9),
		Max:   s.Max(),
	}
}

// String renders the summary as a single readable line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p95=%v p98=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Millisecond), s.P50.Round(time.Millisecond),
		s.P90.Round(time.Millisecond), s.P95.Round(time.Millisecond),
		s.P98.Round(time.Millisecond), s.P99.Round(time.Millisecond),
		s.Max.Round(time.Millisecond))
}
