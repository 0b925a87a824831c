package analytical

import (
	"math"
	"testing"
	"time"
)

func TestNewMMcValidation(t *testing.T) {
	if _, err := NewMMc(0, 1, 1); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := NewMMc(1, 0, 1); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := NewMMc(1, 1, 0); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewMMc(10, 5, 2); err == nil {
		t.Error("unstable system accepted")
	}
}

func TestMM1ClosedForm(t *testing.T) {
	// For c=1 the Erlang C probability reduces to rho, and
	// W = 1/(mu - lambda).
	q, err := NewMMc(50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Utilization(); got != 0.5 {
		t.Errorf("rho = %v, want 0.5", got)
	}
	if got := q.ErlangC(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ErlangC = %v, want 0.5", got)
	}
	want := 20 * time.Millisecond // 1/(100-50)
	if got := q.MeanResponse(); got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("W = %v, want %v", got, want)
	}
}

func TestMMcKnownValues(t *testing.T) {
	// Classic tabulated case: lambda=2, mu=1, c=3 (rho=2/3):
	// ErlangC = 4/9 ≈ 0.4444, Wq = 4/9 s, W = 13/9 s.
	q, err := NewMMc(2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.ErlangC(); math.Abs(got-4.0/9) > 1e-9 {
		t.Errorf("ErlangC = %v, want 4/9", got)
	}
	wq := 4.0 / 9.0
	wantWq := time.Duration(wq * float64(time.Second))
	if got := q.MeanWait(); math.Abs(float64(got-wantWq)) > float64(time.Microsecond) {
		t.Errorf("Wq = %v, want %v", got, wantWq)
	}
}

func TestWaitQuantile(t *testing.T) {
	q, err := NewMMc(50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Half the arrivals don't wait at all (rho=0.5): the median is 0.
	if got := q.WaitQuantile(0.5); got != 0 {
		t.Errorf("median wait = %v, want 0", got)
	}
	// p99: P(W > t) = 0.01 → t = ln(0.5/0.01)/50 ≈ 78.2 ms.
	want := time.Duration(math.Log(50) / 50 * float64(time.Second))
	got := q.WaitQuantile(0.99)
	if math.Abs(float64(got-want)) > float64(time.Millisecond) {
		t.Errorf("p99 wait = %v, want ~%v", got, want)
	}
	// Monotonicity.
	prev := time.Duration(-1)
	for _, p := range []float64{0, 0.3, 0.6, 0.9, 0.99, 0.999} {
		v := q.WaitQuantile(p)
		if v < prev {
			t.Errorf("quantile not monotone at %v", p)
		}
		prev = v
	}
}
