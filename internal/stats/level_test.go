package stats

import (
	"slices"
	"testing"
	"time"
)

func TestLevelIntegratorBasics(t *testing.T) {
	li := NewArena().LevelIntegrator()
	if li.Level() != 0 {
		t.Fatal("new integrator not at level 0")
	}
	li.KeepHistory()
	li.Set(time.Second, 2)
	li.Set(2*time.Second, 5)
	li.Set(3*time.Second, 0)
	if li.Level() != 0 {
		t.Errorf("Level = %v, want 0", li.Level())
	}
	// Integral: 0*1 + 2*1 + 5*1 = 7 level-seconds by t=3.
	if got := li.Integral(3 * time.Second); got != 7 {
		t.Errorf("Integral(3s) = %v, want 7", got)
	}
	// Open level extends: set level 4 at t=4, ask at t=6.
	li.Set(4*time.Second, 4)
	if got := li.Integral(6 * time.Second); got != 7+8 {
		t.Errorf("Integral(6s) = %v, want 15", got)
	}
	if n := len(li.transitions); n != 4 {
		t.Errorf("transitions = %d, want 4", n)
	}
}

// TestLevelIntegratorIntegralExact pins the integer integral: level·ns
// accumulates without rounding, where summing float level-seconds per
// step would drift.
func TestLevelIntegratorIntegralExact(t *testing.T) {
	li := NewArena().LevelIntegrator()
	const steps = 100000
	var want int64
	for i := 0; i < steps; i++ {
		level := 3 + i%2
		li.Set(time.Duration(i)*time.Millisecond+time.Nanosecond, level)
		want += int64(level) * int64(time.Millisecond)
	}
	end := time.Duration(steps)*time.Millisecond + time.Nanosecond
	if got, w := li.Integral(end), float64(want)/1e9; got != w {
		t.Errorf("Integral = %v, want %v", got, w)
	}
}

func TestLevelIntegratorWindowAverage(t *testing.T) {
	li := NewArena().LevelIntegrator()
	li.KeepHistory()
	li.Set(time.Second, 10)
	li.Set(2*time.Second, 0)
	tests := []struct {
		from, to time.Duration
		want     float64
	}{
		{0, 4 * time.Second, 2.5},
		{time.Second, 2 * time.Second, 10},
		{1500 * time.Millisecond, 2500 * time.Millisecond, 5},
		{3 * time.Second, 4 * time.Second, 0},
		{2 * time.Second, 2 * time.Second, 0}, // degenerate window
	}
	for _, tc := range tests {
		if got := li.WindowAverage(tc.from, tc.to); got != tc.want {
			t.Errorf("WindowAverage(%v,%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}

	// Back-to-back one-second windows over a step level read each step.
	step := NewArena().LevelIntegrator()
	step.KeepHistory()
	step.Set(0, 1)
	step.Set(time.Second, 3)
	step.Set(2*time.Second, 0)
	for i, want := range []float64{1, 3, 0} {
		from := time.Duration(i) * time.Second
		if got := step.WindowAverage(from, from+time.Second); got != want {
			t.Errorf("step window %d average = %v, want %v", i, got, want)
		}
	}
}

func TestLevelIntegratorDuplicateSetIgnored(t *testing.T) {
	li := NewArena().LevelIntegrator()
	li.KeepHistory()
	li.Set(time.Second, 3)
	li.Set(2*time.Second, 3) // no-op
	if n := len(li.transitions); n != 1 {
		t.Errorf("duplicate set recorded: %d transitions", n)
	}
}

// mustPanicNoHistory fails t unless WindowAverage(from, to) panics with
// the no-history value.
func mustPanicNoHistory(t *testing.T, li *LevelIntegrator, from, to time.Duration) {
	t.Helper()
	defer func() {
		if r := recover(); r != errNoHistory {
			t.Errorf("WindowAverage(%v,%v) recovered %v, want %v", from, to, r, errNoHistory)
		}
	}()
	li.WindowAverage(from, to)
}

// TestLevelIntegratorHistoryOptIn pins the opt-in contract: without
// KeepHistory the level and integral are exact but nothing is recorded,
// and WindowAverage panics rather than answer 0.
func TestLevelIntegratorHistoryOptIn(t *testing.T) {
	a := NewArena()
	off, on := a.LevelIntegrator(), a.LevelIntegrator()
	on.KeepHistory()
	for i := 0; i < 1000; i++ {
		at, level := time.Duration(i)*time.Millisecond, i%5
		off.Set(at, level)
		on.Set(at, level)
	}
	if len(off.transitions) != 0 || cap(off.transitions) != 0 {
		t.Errorf("integrator without history holds %d/%d transitions", len(off.transitions), cap(off.transitions))
	}
	if off.Level() != on.Level() || off.Integral(time.Second) != on.Integral(time.Second) {
		t.Errorf("history changed the level or integral: %d/%v vs %d/%v",
			off.Level(), off.Integral(time.Second), on.Level(), on.Integral(time.Second))
	}
	mustPanicNoHistory(t, off, 0, time.Second)
	mustPanicNoHistory(t, off, time.Second, time.Second)

	a.Reset()
	li := a.LevelIntegrator()
	li.KeepHistory()
	li.Set(time.Second, 1)
	a.Reset()
	if li = a.LevelIntegrator(); li.history {
		t.Error("recycled arena integrator kept its history flag")
	}
	mustPanicNoHistory(t, li, 0, time.Second)
	a.Reset()
}

// TestLevelIntegratorLateHistory starts history mid-run: windows from the
// last level change on are exact, earlier windows panic.
func TestLevelIntegratorLateHistory(t *testing.T) {
	li := NewArena().LevelIntegrator()
	li.Set(time.Second, 2)
	li.Set(2*time.Second, 4)
	li.KeepHistory()
	li.Set(4*time.Second, 0)
	mustPanicNoHistory(t, li, 0, 3*time.Second)
	mustPanicNoHistory(t, li, 2*time.Second-time.Nanosecond, 3*time.Second)
	if got := li.WindowAverage(2*time.Second, 6*time.Second); got != 2 {
		t.Errorf("WindowAverage(2s,6s) = %v, want 2", got)
	}
	if got := li.WindowAverage(3*time.Second, 4*time.Second); got != 4 {
		t.Errorf("WindowAverage(3s,4s) = %v, want 4", got)
	}
	li.KeepHistory() // idempotent: history keeps its start
	if got := li.WindowAverage(2*time.Second, 4*time.Second); got != 4 {
		t.Errorf("after a second KeepHistory, WindowAverage(2s,4s) = %v, want 4", got)
	}
}

func TestTimeSeriesAccessors(t *testing.T) {
	ts := NewArena().TimeSeries("x")
	if ts.Name != "x" || len(ts.Points) != 0 {
		t.Errorf("new series = %+v", ts)
	}
	ts.Add(time.Second, 2)
	ts.Add(2*time.Second, 8)
	ts.Add(3*time.Second, 5)
	want := []Point{{T: time.Second, V: 2}, {T: 2 * time.Second, V: 8}, {T: 3 * time.Second, V: 5}}
	if !slices.Equal(ts.Points, want) {
		t.Errorf("Points = %+v, want %+v", ts.Points, want)
	}
	ts.Reset()
	if ts.Name != "x" || len(ts.Points) != 0 || cap(ts.Points) < 3 {
		t.Errorf("after Reset: name %q, len %d, cap %d", ts.Name, len(ts.Points), cap(ts.Points))
	}
}

func TestSampleValuesAndString(t *testing.T) {
	s := NewArena().Sample(2)
	s.Add(2 * time.Second)
	s.Add(time.Second)
	vals := s.Values()
	if len(vals) != 2 {
		t.Fatalf("Values len = %d", len(vals))
	}
	// Mutating the copy must not affect the sample.
	vals[0] = 0
	if s.Max() != 2*time.Second {
		t.Error("Values copy aliased the sample")
	}
	text := s.Summarize().String()
	for _, want := range []string{"n=2", "p95", "max"} {
		if !containsStr(text, want) {
			t.Errorf("summary %q missing %q", text, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
