package stats

import (
	"testing"
	"time"
)

// statsPass is one simulated run's worth of stats work against a single
// arena: check out every kernel type, record past the initial capacity
// hints (forcing the slab trade-up path), query, and recycle. After
// warm-up this must not touch the heap at all.
func statsPass(a *Arena) {
	defer a.Reset()
	s := a.Sample(1024)
	li := a.LevelIntegrator()
	li.KeepHistory()
	ts := a.TimeSeries("alloc-probe")
	for i := 0; i < 4096; i++ {
		d := time.Duration(i%977) * time.Millisecond
		s.Add(d)
		li.Set(time.Duration(i)*time.Millisecond, i%3)
		ts.Add(time.Duration(i)*time.Millisecond, float64(i%7))
	}
	_ = s.Quantile(0.99) // radix path: n >= radixMinLen
	_ = s.Mean()
	_ = s.Max()
	_ = li.Integral(4096 * time.Millisecond)
	_ = li.WindowAverage(0, 4096*time.Millisecond)
}

// TestArenaStatsPathZeroAllocs is the gated allocation contract behind the
// tentpole: after warm-up, a full checkout → record → sort/query → Reset
// cycle performs zero heap allocations, so a figure run's stats path costs
// nothing in steady state. The contract mirrors the telemetry tracer's
// zero-alloc submit test; the regression gate lives in
// BenchmarkStatsRecord via bench/baseline.json.
func TestArenaStatsPathZeroAllocs(t *testing.T) {
	a := NewArena()
	// Warm the slab classes, the object shells, and the free-list spines.
	for i := 0; i < 8; i++ {
		statsPass(a)
	}
	if allocs := testing.AllocsPerRun(100, func() { statsPass(a) }); allocs != 0 {
		t.Errorf("stats pass allocated %.1f objects per run after warm-up, want 0", allocs)
	}
	if a.spills != 0 {
		t.Errorf("stats pass spilled %d slabs past the default budget", a.spills)
	}
}

// TestSampleQueryZeroAllocs pins the sort path between Adds: once the
// sorted slab and the arena's radix scratch are sized, an Add followed by
// a re-sorting query allocates nothing.
func TestSampleQueryZeroAllocs(t *testing.T) {
	s := NewArena().Sample(4096)
	for i := 0; i < 1024; i++ {
		s.Add(time.Duration(i*7919%1024) * time.Microsecond)
	}
	_ = s.Quantile(0.99)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(time.Duration(i) * time.Microsecond)
		i++
		_ = s.Quantile(0.99)
	})
	if allocs != 0 {
		t.Errorf("sample Add+Quantile allocates %v objects/op, want 0", allocs)
	}
}

// TestArenaBudgetSpillAccounting pins the horizon cap: growth past the
// byte budget still succeeds (results stay exact) but is booked as spills
// with the overrun bytes, and pooled storage is re-counted only once.
func TestArenaBudgetSpillAccounting(t *testing.T) {
	a := NewArena()
	a.budgetBytes = 8 << 10 // one minimum slab (1024 durations × 8 bytes) fits exactly
	s := a.Sample(1024)
	if a.spills != 0 {
		t.Fatalf("first in-budget slab counted as spill: %d spills", a.spills)
	}
	for i := 0; i < 2048; i++ { // grow past the budgeted slab
		s.Add(time.Duration(i))
	}
	if a.spills == 0 || a.spillBytes == 0 {
		t.Fatalf("over-budget growth not recorded as spill: %d spills, %d bytes", a.spills, a.spillBytes)
	}
	if a.ownedBytes <= a.budgetBytes {
		t.Fatalf("owned bytes %d not past budget %d despite spill", a.ownedBytes, a.budgetBytes)
	}
	if got, want := s.Len(), 2048; got != want {
		t.Fatalf("spilled sample lost observations: len %d, want %d", got, want)
	}
	spillsBefore := a.spills
	a.Reset()
	s = a.Sample(1024)
	for i := 0; i < 2048; i++ {
		s.Add(time.Duration(i))
	}
	if a.spills != spillsBefore {
		t.Fatalf("recycled slabs re-counted as spills: %d -> %d", spillsBefore, a.spills)
	}
}
