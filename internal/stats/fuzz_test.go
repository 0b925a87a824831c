package stats

import (
	"math"
	"testing"
	"time"
)

// FuzzSampleQuantile feeds arbitrary observation triples to a sample and
// checks the quantile kernel's invariants: no panic anywhere in [min, max]
// queries, Quantile(0)/Quantile(1) hit the extremes, results are monotone
// in q, interpolated values stay within [min, max], and every answer
// matches the naive sort-and-index reference bit for bit.
func FuzzSampleQuantile(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), 0.5)
	f.Add(int64(-5), int64(3), int64(3), 0.25)
	f.Add(int64(time.Millisecond), int64(time.Second), int64(time.Minute), 0.99)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(0), 0.999)
	f.Add(int64(1), int64(2), int64(3), -1.5) // out-of-range q clamps
	f.Add(int64(7), int64(7), int64(7), 2.0)
	f.Fuzz(func(t *testing.T, raw1, raw2, raw3 int64, q float64) {
		values := []time.Duration{time.Duration(raw1), time.Duration(raw2), time.Duration(raw3)}
		a := NewArena()
		defer a.Reset()
		s := a.Sample(0)
		for _, v := range values {
			s.Add(v)
		}
		if math.IsNaN(q) {
			q = 0.5
		}
		got := s.Quantile(q)
		if want := naiveQuantile(values, q); got != want {
			t.Fatalf("quantile %d != reference %d at q=%v", got, want, q)
		}
		min, max := s.Min(), s.Max()
		if s.Quantile(0) != min || s.Quantile(1) != max {
			t.Fatalf("Quantile(0)=%d want %d; Quantile(1)=%d want %d",
				s.Quantile(0), min, s.Quantile(1), max)
		}
		// Interpolation computes v[lo] + frac*(v[hi]-v[lo]); when the span
		// max-min overflows int64 (only possible with negative durations of
		// cosmic magnitude, which real response times never produce), the
		// ordering invariants don't hold — the contract there is just
		// "no panic", checked by getting this far.
		if uint64(max)-uint64(min) > uint64(math.MaxInt64) {
			return
		}
		if got < min || got > max {
			t.Fatalf("Quantile(%v) = %d outside [%d, %d]", q, got, min, max)
		}
		grid := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
		prev := s.Quantile(0)
		for _, g := range grid[1:] {
			cur := s.Quantile(g)
			if want := naiveQuantile(values, g); cur != want {
				t.Fatalf("quantile %d != reference %d at q=%v", cur, want, g)
			}
			if cur < prev {
				t.Fatalf("quantile not monotone in q: q=%v gives %d after %d", g, cur, prev)
			}
			prev = cur
		}
	})
}
