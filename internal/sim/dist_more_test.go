package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestDistributionMeans(t *testing.T) {
	tests := []struct {
		name string
		d    Dist
		want time.Duration
		tol  time.Duration
	}{
		{"deterministic", NewDeterministic(5 * time.Millisecond), 5 * time.Millisecond, 0},
		{"exponential", NewExponential(20 * time.Millisecond), 20 * time.Millisecond, 0},
		{"erlang", NewErlang(4, 8*time.Millisecond), 8 * time.Millisecond, time.Microsecond},
	}
	for _, tc := range tests {
		got := tc.d.Mean()
		if got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("%s Mean = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDistributionConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"exponential zero", func() { NewExponential(0) }},
		{"rate zero", func() { NewExponentialRate(0) }},
		{"lognormal zero mean", func() { NewLogNormalFromMean(0, 1) }},
		{"lognormal negative sigma", func() { NewLogNormalFromMean(time.Second, -1) }},
		{"erlang zero shape", func() { NewErlang(0, time.Second) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid constructor argument")
				}
			}()
			tc.fn()
		})
	}
}

func TestDeterministicNegativeClamped(t *testing.T) {
	d := Deterministic{Value: -time.Second}
	if got := d.Sample(nil); got != 0 {
		t.Errorf("negative deterministic sampled %v, want 0", got)
	}
}

func TestEngineAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngineWithRand(rng)
	if e.Rand() != rng {
		t.Error("Rand() did not return the injected source")
	}
	ev := e.Schedule(time.Second, func() {})
	if ev.Time() != time.Second {
		t.Errorf("Event.Time = %v", ev.Time())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if e.Processed() != 0 {
		t.Errorf("Processed = %d, want 0", e.Processed())
	}
	if err := e.RunAll(0); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 || e.Processed() != 1 {
		t.Errorf("after run: pending %d processed %d", e.Pending(), e.Processed())
	}
}

func TestEngineAtPanicsOnNil(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback accepted")
		}
	}()
	e.At(time.Second, nil)
}
