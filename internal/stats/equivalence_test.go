package stats

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"memca/internal/sweep"
)

// naiveQuantile is the reference implementation the arena-backed kernels
// are checked against: copy, comparison-sort, index with the same linear
// interpolation as Sample.Quantile — but sharing none of the production
// sort or slab code.
func naiveQuantile(values []time.Duration, q float64) time.Duration {
	if len(values) == 0 {
		return 0
	}
	v := make([]time.Duration, len(values))
	copy(v, values)
	slices.Sort(v)
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo] + time.Duration(frac*float64(v[hi]-v[lo]))
}

func naiveMean(values []time.Duration) time.Duration {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(values)))
}

// randomDurations draws n durations spanning the magnitudes tail
// amplification produces — sub-millisecond service times up to multi-second
// stalls — plus the hostile cases: zeros, duplicates, negatives, and
// near-extreme values that stress the radix sort's sign handling.
func randomDurations(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = time.Duration(rng.Int63n(1000)) // duplicate-heavy
		case 2:
			out[i] = -time.Duration(rng.Int63n(int64(time.Second)))
		case 3:
			out[i] = time.Duration(math.MaxInt64 - rng.Int63n(1<<20))
		case 4:
			out[i] = time.Duration(math.MinInt64 + rng.Int63n(1<<20))
		default:
			out[i] = time.Duration(rng.Int63n(int64(10 * time.Second)))
		}
	}
	return out
}

var quantileGrid = []float64{0, 0.5, 0.9, 0.99, 0.999, 1}

// checkSampleMatchesReference asserts that a sample loaded with values
// answers exactly like the naive reference, bit for bit.
func checkSampleMatchesReference(t *testing.T, s *Sample, values []time.Duration) {
	t.Helper()
	for _, v := range values {
		s.Add(v)
	}
	for _, q := range quantileGrid {
		if got, want := s.Quantile(q), naiveQuantile(values, q); got != want {
			t.Fatalf("n=%d q=%v: got %d, reference %d", len(values), q, got, want)
		}
	}
	if got, want := s.Mean(), naiveMean(values); got != want {
		t.Fatalf("n=%d mean: got %d, reference %d", len(values), got, want)
	}
	var wantMax, wantMin time.Duration
	if len(values) > 0 {
		wantMax = slices.Max(values)
		wantMin = slices.Min(values)
	}
	if got := s.Max(); got != wantMax {
		t.Fatalf("n=%d max: got %d, reference %d", len(values), got, wantMax)
	}
	if got := s.Min(); got != wantMin {
		t.Fatalf("n=%d min: got %d, reference %d", len(values), got, wantMin)
	}
}

// TestArenaSampleMatchesNaiveReference is the equivalence property of the
// quantile kernel: samples agree bit-identically with an independent
// sort-and-index reference across the quantile grid and the length edge
// cases (empty, singleton, pair, odd, even, and a
// stream large enough to take the radix path several slab classes up).
func TestArenaSampleMatchesNaiveReference(t *testing.T) {
	const baseSeed = 7
	lengths := []int{0, 1, 2, 101, 1000, 100000}
	a := NewArena()
	for i, n := range lengths {
		rng := rand.New(rand.NewSource(sweep.DeriveSeed(baseSeed, i)))
		values := randomDurations(rng, n)
		checkSampleMatchesReference(t, a.Sample(16), values)
		a.Reset()
	}
}

// TestArenaSampleReuseAfterReset recycles one arena across generations and
// checks that recycled samples answer from their own observations only: no
// slab aliasing between the samples of one generation, and nothing
// surviving from the previous generation.
func TestArenaSampleReuseAfterReset(t *testing.T) {
	const baseSeed = 11
	a := NewArena()
	for gen := 0; gen < 5; gen++ {
		rngA := rand.New(rand.NewSource(sweep.DeriveSeed(baseSeed, 2*gen)))
		rngB := rand.New(rand.NewSource(sweep.DeriveSeed(baseSeed, 2*gen+1)))
		valuesA := randomDurations(rngA, 5000+gen)
		valuesB := randomDurations(rngB, 300)

		sa, sb := a.Sample(64), a.Sample(64)
		for _, v := range valuesA {
			sa.Add(v)
		}
		for _, v := range valuesB {
			sb.Add(v)
		}
		// Interleave queries so both samples' sorted slabs are live at once.
		for _, q := range quantileGrid {
			if got, want := sa.Quantile(q), naiveQuantile(valuesA, q); got != want {
				t.Fatalf("gen %d sample A q=%v: got %d, want %d", gen, q, got, want)
			}
			if got, want := sb.Quantile(q), naiveQuantile(valuesB, q); got != want {
				t.Fatalf("gen %d sample B q=%v: got %d, want %d", gen, q, got, want)
			}
		}
		if !slices.Equal(sa.Values(), valuesA) || !slices.Equal(sb.Values(), valuesB) {
			t.Fatalf("gen %d: recycled samples do not hold their own observations", gen)
		}
		a.Reset()
	}
	if st := a.Stats(); st.Live != 0 || st.Resets != 5 {
		t.Fatalf("after reuse loop: Live=%d Resets=%d, want 0 and 5", st.Live, st.Resets)
	}
}

// TestArenaStaleHandlePanics pins the ownership rule: recording into or
// querying a sample or integrator from a previous arena generation must
// panic, not silently alias a recycled slab or read as empty.
func TestArenaStaleHandlePanics(t *testing.T) {
	a := NewArena()
	s := a.Sample(4)
	s.Add(time.Millisecond)
	_ = s.Quantile(0.5)
	o := a.Sample(4)
	li := a.LevelIntegrator()
	li.KeepHistory()
	li.Set(time.Second, 1)
	a.Reset()
	// A live handle from another arena: a checkout from a would recycle
	// one of the stale shells, which no check can tell from a fresh one.
	fresh := NewArena().Sample(4)
	cases := []struct {
		name string
		use  func()
	}{
		{"Sample.Add", func() { s.Add(time.Millisecond) }},
		{"Sample.Merge", func() { s.Merge(s) }},
		{"Sample.Merge stale argument", func() { fresh.Merge(o) }},
		{"Sample.Len", func() { s.Len() }},
		{"Sample.Quantile", func() { s.Quantile(0.5) }},
		{"Sample.Max", func() { s.Max() }},
		{"Sample.Mean", func() { s.Mean() }},
		{"Sample.Values", func() { s.Values() }},
		{"Sample.Summarize", func() { s.Summarize() }},
		{"LevelIntegrator.Set", func() { li.Set(2*time.Second, 2) }},
		{"LevelIntegrator.Integral", func() { li.Integral(time.Second) }},
		{"LevelIntegrator.WindowAverage", func() { li.WindowAverage(0, time.Second) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a stale handle did not panic", tc.name)
				}
			}()
			tc.use()
		}()
	}
}

// TestSortDurationsMatchesSlicesSort checks the radix sort against the
// standard library across adversarial shapes: random with negatives and
// extremes, all-equal (every pass skipped), already sorted, reversed, and
// lengths straddling the radixMinLen comparison-sort cutoff.
func TestSortDurationsMatchesSlicesSort(t *testing.T) {
	const baseSeed = 23
	lengths := []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 65536}
	scratch := make([]time.Duration, 65536)
	for i, n := range lengths {
		rng := rand.New(rand.NewSource(sweep.DeriveSeed(baseSeed, i)))
		cases := [][]time.Duration{randomDurations(rng, n)}
		if n > 0 {
			constant := make([]time.Duration, n)
			for j := range constant {
				constant[j] = -42 * time.Millisecond
			}
			sorted := randomDurations(rng, n)
			slices.Sort(sorted)
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			cases = append(cases, constant, sorted, reversed)
		}
		for ci, values := range cases {
			want := slices.Clone(values)
			slices.Sort(want)

			got := slices.Clone(values)
			sortDurations(got, scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d case=%d: radix path diverges from slices.Sort", n, ci)
			}
		}
	}
}

// TestSampleValuesInsertionOrderAfterQueries is the regression test for
// the Values contract used by the CSV writers: query the sample (which
// sorts internally), then export — the export must still be in insertion
// order, with SortedValues as the explicit ascending accessor, and neither
// returned slice may alias sample-internal storage.
func TestSampleValuesInsertionOrderAfterQueries(t *testing.T) {
	inserted := []time.Duration{
		5 * time.Second, time.Millisecond, 3 * time.Second,
		-time.Microsecond, 4 * time.Second, time.Millisecond,
	}
	a := NewArena()
	defer a.Reset()
	s := a.Sample(0)
	for _, v := range inserted {
		s.Add(v)
	}
	// The writers query percentiles first, then export raw values.
	_ = s.Quantile(0.99)
	_ = s.Summarize()
	if got := s.Values(); !slices.Equal(got, inserted) {
		t.Fatalf("Values after queries = %v, want insertion order %v", got, inserted)
	}
	// Values returns a copy: mutating it must not corrupt the sample.
	s.Values()[0] = 0
	if got := s.Values(); !slices.Equal(got, inserted) {
		t.Fatal("Values aliases sample storage")
	}
}

// TestSampleMerge checks Merge against the Add loop it replaces and the
// plain concatenated slice, for small and slab-class capacity hints on
// either side: values in insertion order and every quantile, across a
// slab-class boundary, for an empty o, for s.Merge(s), and after a
// quantile was cached before the merge.
func TestSampleMerge(t *testing.T) {
	const baseSeed = 29
	a := NewArena()
	defer a.Reset()
	kinds := map[string]func() *Sample{
		"small": func() *Sample { return a.Sample(16) },
		"class": func() *Sample { return a.Sample(1 << minClassBits) },
	}
	sizes := []struct{ s, o int }{
		{0, 0}, {5, 0}, {0, 7}, {1000, 100}, {1 << minClassBits, 1}, {3000, 5000},
	}
	for sName, newS := range kinds {
		for oName, newO := range kinds {
			for i, n := range sizes {
				rng := rand.New(rand.NewSource(sweep.DeriveSeed(baseSeed, i)))
				sv, ov := randomDurations(rng, n.s), randomDurations(rng, n.o)
				s, o, ref := newS(), newO(), newS()
				for _, v := range sv {
					s.Add(v)
					ref.Add(v)
				}
				for _, v := range ov {
					o.Add(v)
				}
				_ = s.Quantile(0.5) // cache a sorted view the merge must invalidate
				s.Merge(o)
				for _, v := range o.Values() {
					ref.Add(v)
				}
				want := append(slices.Clone(sv), ov...)
				name := sName + "<-" + oName
				checkMerged(t, name, s, ref, want)
				if !slices.Equal(o.Values(), ov) {
					t.Fatalf("%s n=%v: Merge changed its argument", name, n)
				}
			}
		}
		for i, n := range []int{0, 700, 3000} {
			rng := rand.New(rand.NewSource(sweep.DeriveSeed(baseSeed, 100+i)))
			sv := randomDurations(rng, n)
			s, ref := newS(), newS()
			for _, v := range sv {
				s.Add(v)
				ref.Add(v)
			}
			_ = s.Quantile(0.99)
			s.Merge(s)
			for _, v := range sv {
				ref.Add(v)
			}
			checkMerged(t, sName+" self", s, ref, append(slices.Clone(sv), sv...))
		}
	}

	// An arena-backed merge across a slab class grows once, from the
	// arena's free lists: a warm cycle does not touch the heap.
	b := NewArena()
	cycle := func() {
		o := b.Sample(4096)
		for i := 0; i < 3000; i++ {
			o.Add(time.Duration(i))
		}
		s := b.Sample(1 << minClassBits)
		for i := 0; i < 1000; i++ {
			s.Add(time.Duration(i))
		}
		s.Merge(o)
		if s.Len() != 4000 {
			t.Fatalf("merged length %d, want 4000", s.Len())
		}
		b.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("warm arena-backed Merge allocates %v objects/op, want 0", allocs)
	}
}

// checkMerged compares a merged sample with the Add-loop reference and
// with the expected insertion-order values.
func checkMerged(t *testing.T, name string, s, ref *Sample, want []time.Duration) {
	t.Helper()
	if !slices.Equal(s.Values(), want) || !slices.Equal(ref.Values(), want) {
		t.Fatalf("%s (n=%d): merged values differ from the Add loop", name, len(want))
	}
	for _, q := range quantileGrid {
		if got, w := s.Quantile(q), naiveQuantile(want, q); got != w || ref.Quantile(q) != w {
			t.Fatalf("%s (n=%d) q=%v: got %d, Add loop %d, reference %d", name, len(want), q, got, ref.Quantile(q), w)
		}
	}
	if s.Mean() != ref.Mean() {
		t.Fatalf("%s (n=%d): mean %d, Add loop %d", name, len(want), s.Mean(), ref.Mean())
	}
}

// TestArenaWorkerCountEquivalence runs the same arena-backed quantile jobs
// through sweep.RunState at workers 1, 4, and 8 and demands identical
// results — the per-worker arena contract of the figure drivers in
// miniature.
func TestArenaWorkerCountEquivalence(t *testing.T) {
	const jobs = 32
	run := func(workers int) []time.Duration {
		t.Helper()
		res, err := sweep.RunState(t.Context(), sweep.Options{Workers: workers}, jobs,
			GetArena, PutArena,
			func(_ context.Context, a *Arena, i int) (time.Duration, error) {
				defer a.Reset()
				rng := rand.New(rand.NewSource(sweep.DeriveSeed(97, i)))
				s := a.Sample(256)
				for _, v := range randomDurations(rng, 2000+i) {
					s.Add(v)
				}
				return s.Quantile(0.99), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{4, 8} {
		if got := run(w); !slices.Equal(got, base) {
			t.Fatalf("workers=%d results diverge from serial", w)
		}
	}
}
