package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleQuantileBasics(t *testing.T) {
	s := NewArena().Sample(0)
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{0, time.Millisecond},
		{100, 100 * time.Millisecond},
		{50, 50*time.Millisecond + 500*time.Microsecond},
	}
	for _, tc := range tests {
		got := s.Percentile(tc.p)
		if got != tc.want {
			t.Errorf("P%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewArena().Sample(0)
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty sample should return zeros")
	}
	sum := s.Summarize()
	if sum.Count != 0 {
		t.Errorf("empty summary count = %d", sum.Count)
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	s := NewArena().Sample(4)
	s.Add(3 * time.Second)
	s.Add(time.Second)
	if got := s.Min(); got != time.Second {
		t.Fatalf("Min = %v", got)
	}
	s.Add(500 * time.Millisecond) // must invalidate the sort cache
	if got := s.Min(); got != 500*time.Millisecond {
		t.Errorf("Min after re-add = %v, want 500ms", got)
	}
}

func TestSamplePercentileCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewArena().Sample(0)
	for i := 0; i < 10000; i++ {
		s.Add(time.Duration(rng.Int63n(int64(10 * time.Second))))
	}
	ps := []float64{10, 25, 50, 75, 90, 95, 98, 99, 99.9}
	curve := s.PercentileCurve(ps)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("percentile curve not monotone at %v: %v < %v", ps[i], curve[i], curve[i-1])
		}
	}
}

func TestSampleQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []uint16, qRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewArena().Sample(len(raw))
		var lo, hi time.Duration = 1 << 62, 0
		for _, r := range raw {
			d := time.Duration(r)
			s.Add(d)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		q := float64(qRaw) / 65535
		v := s.Quantile(q)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Add(7)
	}
	if got := e.Value(); got < 6.999 || got > 7.001 {
		t.Errorf("EWMA of constant = %v, want 7", got)
	}
}

func TestEWMAPrimesOnFirstValue(t *testing.T) {
	e := NewEWMA(0.01)
	if e.Primed() {
		t.Error("new EWMA reports primed")
	}
	e.Add(100)
	if e.Value() != 100 {
		t.Errorf("first value = %v, want 100", e.Value())
	}
}

func TestCUSUMDetectsShift(t *testing.T) {
	c := NewCUSUM(10, 1, 5)
	for i := 0; i < 100; i++ {
		if c.Add(10) {
			t.Fatal("CUSUM alarmed on in-control data")
		}
	}
	alarmed := false
	for i := 0; i < 20; i++ {
		if c.Add(14) {
			alarmed = true
			break
		}
	}
	if !alarmed {
		t.Error("CUSUM missed a 4-sigma-equivalent shift")
	}
	if c.alarms != 1 {
		t.Errorf("alarms = %d, want 1", c.alarms)
	}
	if c.Sum() != 0 {
		t.Errorf("Sum not reset after alarm: %v", c.Sum())
	}
}

func TestTimeSeriesResample(t *testing.T) {
	ts := NewArena().TimeSeries("cpu")
	ts.Add(100*time.Millisecond, 1)
	ts.Add(200*time.Millisecond, 3)
	ts.Add(1100*time.Millisecond, 10)
	buckets, err := ts.Resample(time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	if buckets[0].Mean != 2 || buckets[0].Count != 2 || buckets[0].Max != 3 {
		t.Errorf("bucket0 = %+v", buckets[0])
	}
	if buckets[1].Mean != 10 || buckets[1].Count != 1 {
		t.Errorf("bucket1 = %+v", buckets[1])
	}
}

func TestTimeSeriesResampleRejectsBadArgs(t *testing.T) {
	ts := NewArena().TimeSeries("x")
	if _, err := ts.Resample(0, time.Second); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := ts.Resample(time.Second, 0); err == nil {
		t.Error("zero horizon accepted")
	}
}

// busyIntegrator returns a LevelIntegrator used as a busy/idle signal,
// the way attack.Burster records the adversary's ON bursts: level 1 while
// busy, 0 while idle, with history for window queries.
func busyIntegrator() *LevelIntegrator {
	li := NewArena().LevelIntegrator()
	li.KeepHistory()
	return li
}

func TestBusyIntegratorUtilization(t *testing.T) {
	b := busyIntegrator()
	b.Set(1*time.Second, 1)
	b.Set(2*time.Second, 0)
	b.Set(3*time.Second, 1)
	b.Set(3500*time.Millisecond, 0)

	tests := []struct {
		from, to time.Duration
		want     float64
	}{
		{0, 4 * time.Second, 1.5 / 4},
		{0, 1 * time.Second, 0},
		{1 * time.Second, 2 * time.Second, 1},
		{1500 * time.Millisecond, 2500 * time.Millisecond, 0.5},
		{3 * time.Second, 4 * time.Second, 0.5},
	}
	for _, tc := range tests {
		got := b.WindowAverage(tc.from, tc.to)
		if got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("WindowAverage(%v,%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestBusyIntegratorOpenBusyPeriod(t *testing.T) {
	b := busyIntegrator()
	b.Set(time.Second, 1)
	if got := b.WindowAverage(0, 3*time.Second); got < 2.0/3-1e-9 || got > 2.0/3+1e-9 {
		t.Errorf("open busy utilization = %v, want 2/3", got)
	}
	if got := b.Integral(4 * time.Second); got != 3 {
		t.Errorf("busy seconds = %v, want 3", got)
	}
}

func TestBusyIntegratorDuplicateStatesIgnored(t *testing.T) {
	b := busyIntegrator()
	b.Set(time.Second, 1)
	b.Set(2*time.Second, 1) // duplicate
	b.Set(3*time.Second, 0)
	if got := b.Integral(3 * time.Second); got != 2 {
		t.Errorf("busy seconds = %v, want 2", got)
	}
}

func TestBusyIntegratorSeries(t *testing.T) {
	b := busyIntegrator()
	// 100ms busy burst every second, like a miniature MemCA attack.
	for i := 0; i < 5; i++ {
		start := time.Duration(i) * time.Second
		b.Set(start, 1)
		b.Set(start+100*time.Millisecond, 0)
	}
	// Fine granularity sees saturation; coarse sees 10%.
	maxFine := 0.0
	for from := time.Duration(0); from < 5*time.Second; from += 100 * time.Millisecond {
		if u := b.WindowAverage(from, from+100*time.Millisecond); u > maxFine {
			maxFine = u
		}
	}
	if maxFine < 0.999 {
		t.Errorf("fine-grained max utilization %v, want ~1.0", maxFine)
	}
	for from := time.Duration(0); from < 5*time.Second; from += time.Second {
		if u := b.WindowAverage(from, from+time.Second); u < 0.099 || u > 0.101 {
			t.Errorf("coarse window at %v = %v, want ~0.1", from, u)
		}
	}
}
