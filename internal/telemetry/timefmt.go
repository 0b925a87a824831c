package telemetry

import (
	"strconv"
	"time"
)

// Span times are integer nanoseconds, and the exporters write them scaled:
// Chrome ts/dur as the shortest float64 decimal of d/1e3 µs, retransmit
// fire times as that of d/1e6 ms, and the CSVs as d/1e6 ms and
// d.Seconds() fixed to 3 and 6 decimals. strconv gets there through a
// float64, and its fixed-precision path through big-decimal arithmetic.
// Below exactNanos the same bytes follow from integer division alone:
//
//   - Shortest form. d has at most 15 significant digits, so float64(d)
//     is exact and the quotient d/10^k is a decimal of at most 15
//     significant digits. Every such decimal survives a round trip
//     through float64, so no other decimal as short names the same
//     double, and the shortest round-trip form of the correctly rounded
//     quotient is d/10^k itself with trailing zeros trimmed. A nonzero
//     quotient is at least 1e-6 and below 1e21, where encoding/json keeps
//     strconv's plain 'f' form.
//   - Fixed form. Both d/1e6 ms to 3 decimals and d.Seconds() to 6
//     round d to whole microseconds. The float64 operand is within
//     1.3e-10 s (1.2e-7 ms) of the exact quotient, while a d with
//     d%1000 != 500 is at least 1 ns from the nearest rounding boundary,
//     so strconv's correctly rounded result is d/1000 µs rounded half up.
//
// Negative durations, the 500 ns ties (where the float's own rounding
// decides) and durations of 1e15 ns (11.6 days) or more keep the strconv
// expression. FuzzDurationFormat holds both paths to it.
const exactNanos = 1e15

var pow10 = [...]int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// appendUsec appends d in microseconds as appendFloat(float64(d)/1e3).
func appendUsec(b []byte, d time.Duration) []byte { return appendScaled(b, d, 3) }

// appendMsec appends d in milliseconds as appendFloat(float64(d)/1e6).
func appendMsec(b []byte, d time.Duration) []byte { return appendScaled(b, d, 6) }

// appendScaled appends d/10^digits as appendFloat formats the float64
// quotient.
func appendScaled(b []byte, d time.Duration, digits int) []byte {
	unit := pow10[digits]
	if d < 0 || d >= exactNanos {
		return appendFloat(b, float64(d)/float64(unit))
	}
	b = strconv.AppendInt(b, int64(d)/unit, 10)
	frac := int64(d) % unit
	if frac == 0 {
		return b
	}
	for frac%10 == 0 {
		frac /= 10
		digits--
	}
	return appendFrac(append(b, '.'), frac, digits)
}

// fixedExact reports whether d is in the range where rounding it to whole
// microseconds reproduces strconv's fixed-precision forms.
func fixedExact(d time.Duration) bool { return d >= 0 && d < exactNanos && d%1000 != 500 }

// appendFixedMs appends d as strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64).
func appendFixedMs(b []byte, d time.Duration) []byte {
	if !fixedExact(d) {
		return strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	return appendMicros(b, d, 3)
}

// appendFixedSecs appends d as strconv.FormatFloat(d.Seconds(), 'f', 6, 64).
func appendFixedSecs(b []byte, d time.Duration) []byte {
	if !fixedExact(d) {
		return strconv.AppendFloat(b, d.Seconds(), 'f', 6, 64)
	}
	return appendMicros(b, d, 6)
}

// appendMicros appends d rounded half up to whole microseconds, in units
// of 10^digits µs with exactly digits decimals.
func appendMicros(b []byte, d time.Duration, digits int) []byte {
	us := (int64(d) + 500) / 1000
	b = strconv.AppendInt(b, us/pow10[digits], 10)
	return appendFrac(append(b, '.'), us%pow10[digits], digits)
}

// appendFrac appends frac zero-padded to digits digits.
func appendFrac(b []byte, frac int64, digits int) []byte {
	n := len(b)
	b = append(b, "000000"[:digits]...)
	for i := n + digits - 1; frac > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	return b
}
