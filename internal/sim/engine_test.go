package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	if err := e.RunAll(0); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := e.RunAll(0); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	if err := e.RunAll(0); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestEngineRunStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.Run(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3s, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v after Run(3s), want 3s", e.Now())
	}
	e.Run(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestEngineScheduleWithinCallback(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() { times = append(times, e.Now()) })
	})
	if err := e.RunAll(0); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("chained scheduling produced %v", times)
	}
}

func TestEngineNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(2*time.Second, func() {
		e.Schedule(-5*time.Second, func() {
			if e.Now() != 2*time.Second {
				t.Errorf("negative-delay event fired at %v, want 2s", e.Now())
			}
		})
	})
	if err := e.RunAll(0); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func TestEngineRunAllGuard(t *testing.T) {
	e := NewEngine(1)
	var tick func()
	tick = func() { e.Schedule(time.Millisecond, tick) }
	e.Schedule(0, tick)
	if err := e.RunAll(1000); err == nil {
		t.Fatal("RunAll did not report runaway simulation")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := NewEngine(seed)
		d := NewExponential(100 * time.Millisecond)
		var out []time.Duration
		var next func()
		next = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.Schedule(d.Sample(e.Rand()), next)
			}
		}
		e.Schedule(0, next)
		if err := e.RunAll(0); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestEngineClockNeverRegresses(t *testing.T) {
	e := NewEngine(7)
	prev := time.Duration(0)
	d := NewExponential(10 * time.Millisecond)
	for i := 0; i < 200; i++ {
		e.Schedule(d.Sample(e.Rand()), func() {
			if e.Now() < prev {
				t.Fatalf("clock regressed from %v to %v", prev, e.Now())
			}
			prev = e.Now()
		})
	}
	if err := e.RunAll(0); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func TestExponentialMeanConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := NewExponential(200 * time.Millisecond)
	var sum time.Duration
	const n = 200000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	got := sum / n
	if got < 190*time.Millisecond || got > 210*time.Millisecond {
		t.Errorf("sample mean %v outside [190ms, 210ms]", got)
	}
}

func TestExponentialRateEquivalence(t *testing.T) {
	byMean := NewExponential(250 * time.Millisecond)
	byRate := NewExponentialRate(4)
	if byMean.Mean() != byRate.Mean() {
		t.Errorf("mean mismatch: %v vs %v", byMean.Mean(), byRate.Mean())
	}
}

func TestDistributionsNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := map[string]Dist{
		"exponential":   NewExponential(time.Millisecond),
		"lognormal":     NewLogNormalFromMean(5*time.Millisecond, 1.5),
		"erlang":        NewErlang(4, 8*time.Millisecond),
		"deterministic": NewDeterministic(2 * time.Millisecond),
	}
	for name, d := range dists {
		for i := 0; i < 5000; i++ {
			if v := d.Sample(rng); v < 0 {
				t.Errorf("%s produced negative sample %v", name, v)
				break
			}
		}
	}
}

func TestLogNormalMean(t *testing.T) {
	d := NewLogNormalFromMean(100*time.Millisecond, 0.8)
	got := d.Mean()
	if got < 99*time.Millisecond || got > 101*time.Millisecond {
		t.Errorf("analytic mean %v, want ~100ms", got)
	}
	rng := rand.New(rand.NewSource(11))
	var sum time.Duration
	const n = 300000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	avg := sum / n
	if avg < 95*time.Millisecond || avg > 105*time.Millisecond {
		t.Errorf("sample mean %v, want ~100ms", avg)
	}
}

func TestErlangVarianceBelowExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mean := 50 * time.Millisecond
	variance := func(d Dist) float64 {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := d.Sample(rng).Seconds()
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return sumSq/n - m*m
	}
	vExp := variance(NewExponential(mean))
	vErl := variance(NewErlang(8, mean))
	if vErl >= vExp {
		t.Errorf("Erlang-8 variance %v not below exponential %v", vErl, vExp)
	}
}
