package stats

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},
		{1e9, 1e9 * (1 + 1e-12), true},
		{1, 1.0001, false},
		{0, 1e-12, true}, // absolute tolerance near zero
		{0, 1e-6, false}, // but not for clearly nonzero values
		{-2.5, -2.5, true},
		{2.5, -2.5, false},
		{0.95, 0.99, false}, // adjacent percentile grid points stay distinct
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(-1), math.Inf(-1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), 1e308, false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 0, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("ApproxEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestApproxEqualTol(t *testing.T) {
	if !ApproxEqualTol(100, 101, 0.02) {
		t.Error("ApproxEqualTol(100, 101, 0.02) = false, want true")
	}
	if ApproxEqualTol(100, 103, 0.02) {
		t.Error("ApproxEqualTol(100, 103, 0.02) = true, want false")
	}
}
