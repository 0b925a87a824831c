package stats

import "math"

// DefaultTolerance is the relative (and near-zero absolute) tolerance used
// by ApproxEqual. Accumulated rounding across a simulation
// run stays far below it, while any intentional parameter change (capacity
// multipliers, queue levels, percentile grid points) is far above it.
const DefaultTolerance = 1e-9

// ApproxEqual reports whether a and b are equal within DefaultTolerance.
// This is the project-wide replacement for exact float ==, which the
// floatcompare analyzer forbids outside test files.
func ApproxEqual(a, b float64) bool {
	return ApproxEqualTol(a, b, DefaultTolerance)
}

// ApproxEqualTol reports whether a and b are within tol of each other,
// relative to the larger magnitude (absolute near zero). NaN compares
// unequal to everything; infinities compare equal only to infinities of
// the same sign.
func ApproxEqualTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.IsInf(a, 1) == math.IsInf(b, 1) &&
			math.IsInf(a, -1) == math.IsInf(b, -1)
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
