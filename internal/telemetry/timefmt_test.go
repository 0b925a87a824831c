package telemetry

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// checkDurationFormat compares every integer time formatter with the
// strconv expression it replaces.
func checkDurationFormat(t *testing.T, d time.Duration) {
	t.Helper()
	for _, c := range [...]struct {
		name      string
		got, want string
	}{
		{"usec", string(appendUsec(nil, d)), string(appendFloat(nil, float64(d)/1e3))},
		{"msec", string(appendMsec(nil, d)), string(appendFloat(nil, float64(d)/1e6))},
		{"fixedMs", string(appendFixedMs(nil, d)), strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64)},
		{"fixedSecs", string(appendFixedSecs(nil, d)), strconv.FormatFloat(d.Seconds(), 'f', 6, 64)},
	} {
		if c.got != c.want {
			t.Fatalf("%s(%d) = %q, want %q", c.name, int64(d), c.got, c.want)
		}
	}
}

// FuzzDurationFormat is the differential oracle of the integer time
// formatters: for any duration they must write exactly what the strconv
// expressions write. Each input is also folded into the integer paths'
// range, where most random int64s would otherwise never land.
func FuzzDurationFormat(f *testing.F) {
	for _, d := range []int64{
		0, 1, -1, 499, 500, 501, -500, 999, 1000, 1001, 1499, 1500, 1501,
		123456789, 999_999_500, 1_000_000_500, 86_400_000_000_000,
		exactNanos - 1, exactNanos - 500, exactNanos - 501, exactNanos, exactNanos + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 500,
	} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, n int64) {
		checkDurationFormat(t, time.Duration(n))
		checkDurationFormat(t, time.Duration(uint64(n)%exactNanos))
	})
}

// TestDurationFormatMatchesStrconv runs the FuzzDurationFormat oracle over
// seeded random durations at every magnitude up to and past the integer
// range, with the 500 ns ties and their neighbours drawn on purpose.
func TestDurationFormatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		d := rng.Int63n(int64(1) << uint(rng.Intn(62)+1))
		switch i % 4 {
		case 1:
			d = d/1000*1000 + 500 + int64(rng.Intn(3)) - 1
		case 2:
			d = -d
		}
		checkDurationFormat(t, time.Duration(d))
	}
}
