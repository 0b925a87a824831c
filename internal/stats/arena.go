package stats

import (
	"errors"
	"math/bits"
	"sync"
	"time"

	"memca/internal/sim"
)

// Arena owns the slab storage behind every Sample, LevelIntegrator, and
// TimeSeries of one experiment run, and the run's simulation engine, so
// that repeated runs (benchmark iterations, sweep jobs on the same worker)
// recycle storage instead of re-allocating it. It is the only source of
// those objects. It mirrors the queueing package's request pools:
// checkout via the constructor methods, recycle everything at once via
// Reset.
//
// Ownership rules:
//
//   - An arena is single-goroutine, like the simulation engine it feeds.
//     Distinct workers use distinct arenas (see sweep.RunState); the
//     process-wide pool behind GetArena/PutArena is the only synchronized
//     path.
//   - Reset invalidates every object checked out since the previous Reset.
//     A stale handle panics on its next query (Len, Quantile, Mean,
//     Values, Integral, WindowAverage, ...) or on the recording that
//     would grow it, instead of reading as empty or silently aliasing a
//     slab that has been handed to a new object.
//   - That check compares generations, so it holds only until the
//     recycled shell is checked out again: the shell then carries the new
//     generation, and a stale handle to it reads the next run's data
//     undetected. Owners therefore drop their handles when they give the
//     arena back; core.Experiment.Close does so for every component of a
//     run.
//   - An engine is the exception: Reset empties it (sim.Engine.Reset)
//     and keeps it for the next checkout, so a stale *sim.Engine must not
//     be used. Emptying drops every callback and arg the engine held, so
//     a pooled arena pins no model objects.
//   - Results that outlive the run (reports, summaries, percentile
//     curves) must be copied out of arena-backed objects before Reset;
//     the exported query methods already return heap copies.
//
// Growth is horizon-capped by a byte budget rather than unbounded: slabs
// come from power-of-two size classes, and any fresh allocation that
// pushes the arena past its budget is recorded as a spill (count and
// bytes) while still succeeding, so results stay exact and the overrun is
// observable instead of silent.
type Arena struct {
	gen    uint64
	resets uint64

	budgetBytes int64
	ownedBytes  int64
	spills      int64
	spillBytes  int64

	durFree [slabClasses][][]time.Duration
	ptFree  [slabClasses][][]Point

	// Live checked-out objects, harvested at Reset.
	samples []*Sample
	levels  []*LevelIntegrator
	series  []*TimeSeries
	slabs   [][]time.Duration
	engines []*sim.Engine

	// Recycled object shells awaiting re-checkout.
	freeSamples []*Sample
	freeLevels  []*LevelIntegrator
	freeSeries  []*TimeSeries
	freeEngines []*sim.Engine

	// scratch is the shared radix-sort ping-pong buffer (see
	// sortDurations); every sample of the arena reuses it, which is safe
	// because the arena is single-goroutine and the buffer is dead
	// between sorts.
	scratch []time.Duration
}

// DefaultArenaBudget is the slab budget of arenas built by NewArena:
// large enough that full-scale figure runs stay spill-free, small enough
// that a runaway recording loop shows up in ArenaStats.
const DefaultArenaBudget = 256 << 20

const (
	// minClassBits is the smallest slab class (1024 elements), matching
	// the sample capacity hints used across the simulator.
	minClassBits = 10
	// maxClassBits bounds the pooled classes; larger requests are served
	// exactly and returned to the garbage collector on Reset.
	maxClassBits = 30
	slabClasses  = maxClassBits + 1
)

// slabClass returns the size-class exponent for a slab of at least minCap
// elements, or -1 when the request exceeds the largest pooled class.
func slabClass(minCap int) int {
	if minCap <= 1<<minClassBits {
		return minClassBits
	}
	b := bits.Len(uint(minCap - 1))
	if b > maxClassBits {
		return -1
	}
	return b
}

// NewArena returns an empty arena with the default byte budget.
func NewArena() *Arena {
	return &Arena{budgetBytes: DefaultArenaBudget}
}

// ArenaStats describes an arena's storage accounting.
type ArenaStats struct {
	// OwnedBytes is the total slab storage the arena has allocated and
	// still owns (live or pooled).
	OwnedBytes int64
	// BudgetBytes is the configured cap (0 = uncapped).
	BudgetBytes int64
	// Spills counts fresh allocations made while past the budget.
	Spills int64
	// SpillBytes is the storage those allocations added.
	SpillBytes int64
	// Live is the number of currently checked-out objects, engines
	// included.
	Live int
	// Resets counts Reset calls over the arena's lifetime.
	Resets uint64
}

// Stats returns the arena's current storage accounting.
//
//memca:keep TestCloseArenaReuse observes the live-object and reset counts of a recycled arena only through it
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		OwnedBytes:  a.ownedBytes,
		BudgetBytes: a.budgetBytes,
		Spills:      a.spills,
		SpillBytes:  a.spillBytes,
		Live:        len(a.samples) + len(a.levels) + len(a.series) + len(a.slabs) + len(a.engines),
		Resets:      a.resets,
	}
}

// account books n fresh slab bytes, recording a spill past the budget.
func (a *Arena) account(n int64) {
	a.ownedBytes += n
	if a.budgetBytes > 0 && a.ownedBytes > a.budgetBytes {
		a.spills++
		a.spillBytes += n
	}
}

// errStale is check's panic value; a package-level value keeps the check,
// which inlines into every query, free of a heap conversion.
var errStale = errors.New("stats: object used after Arena.Reset")

// check panics when a handle from a previous arena generation is used;
// the slab it pointed at has been recycled.
func (a *Arena) check(gen uint64) {
	if gen != a.gen {
		panic(errStale)
	}
}

// slabGet pops a pooled slab of at least minCap elements, or allocates a
// fresh one (accounting its bytes). The result has length 0.
func slabGet[T any](a *Arena, free *[slabClasses][][]T, minCap int, elemBytes int64) []T {
	b := slabClass(minCap)
	if b < 0 {
		a.account(int64(minCap) * elemBytes)
		return make([]T, 0, minCap)
	}
	if k := len(free[b]); k > 0 {
		sl := free[b][k-1]
		free[b][k-1] = nil
		free[b] = free[b][:k-1]
		return sl[:0]
	}
	a.account((int64(1) << b) * elemBytes)
	return make([]T, 0, 1<<b)
}

// slabPut returns a slab to its class free list. Slabs outside the pooled
// classes are released to the garbage collector and their bytes
// un-accounted.
func slabPut[T any](a *Arena, free *[slabClasses][][]T, sl []T, elemBytes int64) {
	c := cap(sl)
	if c == 0 {
		return
	}
	if c < 1<<minClassBits || c&(c-1) != 0 || c > 1<<maxClassBits {
		a.ownedBytes -= int64(c) * elemBytes
		return
	}
	b := bits.Len(uint(c)) - 1
	free[b] = append(free[b], sl[:0])
}

const (
	durBytes = int64(8)
	ptBytes  = int64(16)
)

func (a *Arena) getDur(minCap int) []time.Duration { return slabGet(a, &a.durFree, minCap, durBytes) }
func (a *Arena) putDur(sl []time.Duration)         { slabPut(a, &a.durFree, sl, durBytes) }
func (a *Arena) getPts(minCap int) []Point         { return slabGet(a, &a.ptFree, minCap, ptBytes) }
func (a *Arena) putPts(sl []Point)                 { slabPut(a, &a.ptFree, sl, ptBytes) }

// Sample checks an empty sample out of the arena with the given capacity
// hint. It is invalidated by the next Reset.
func (a *Arena) Sample(capacity int) *Sample {
	var s *Sample
	if k := len(a.freeSamples); k > 0 {
		s = a.freeSamples[k-1]
		a.freeSamples[k-1] = nil
		a.freeSamples = a.freeSamples[:k-1]
	} else {
		s = &Sample{}
	}
	s.a = a
	s.gen = a.gen
	s.values = a.getDur(capacity)
	s.sorted = nil
	s.sortedN = 0
	a.samples = append(a.samples, s)
	return s
}

// LevelIntegrator checks an integrator (level 0 at time 0, no history)
// out of the arena. Its transition slab is drawn on the first recorded
// transition after KeepHistory. It is invalidated by the next Reset.
func (a *Arena) LevelIntegrator() *LevelIntegrator {
	var li *LevelIntegrator
	if k := len(a.freeLevels); k > 0 {
		li = a.freeLevels[k-1]
		a.freeLevels[k-1] = nil
		a.freeLevels = a.freeLevels[:k-1]
	} else {
		li = &LevelIntegrator{}
	}
	li.a = a
	li.gen = a.gen
	li.transitions = nil
	li.level = 0
	li.lastChange = 0
	li.integral = 0
	li.history = false
	li.histFrom = 0
	li.histLevel = 0
	a.levels = append(a.levels, li)
	return li
}

// TimeSeries checks an empty named series out of the arena. It is
// invalidated by the next Reset.
func (a *Arena) TimeSeries(name string) *TimeSeries {
	var ts *TimeSeries
	if k := len(a.freeSeries); k > 0 {
		ts = a.freeSeries[k-1]
		a.freeSeries[k-1] = nil
		a.freeSeries = a.freeSeries[:k-1]
	} else {
		ts = &TimeSeries{}
	}
	ts.a = a
	ts.gen = a.gen
	ts.Name = name
	ts.Points = a.getPts(0)
	a.series = append(a.series, ts)
	return ts
}

// DurationSlab checks out a zeroed []time.Duration of length n (its
// capacity may be larger), reclaimed at the next Reset. It backs the
// telemetry tracer's per-request duration records, so the sim and trace
// paths draw from one allocator.
func (a *Arena) DurationSlab(n int) []time.Duration {
	sl := a.getDur(n)[:n]
	clear(sl)
	a.slabs = append(a.slabs, sl)
	return sl
}

// Engine checks a simulation engine seeded with seed out of the arena: a
// recycled one after sim.Engine.Reset(seed), whose slot table is already
// grown to the largest queue an earlier run held, or sim.NewEngine(seed)
// when none is free. Either way it behaves as sim.NewEngine(seed). It is
// emptied and taken back by the next Reset.
func (a *Arena) Engine(seed int64) *sim.Engine {
	var e *sim.Engine
	if k := len(a.freeEngines); k > 0 {
		e = a.freeEngines[k-1]
		a.freeEngines[k-1] = nil
		a.freeEngines = a.freeEngines[:k-1]
		e.Reset(seed)
	} else {
		e = sim.NewEngine(seed)
	}
	a.engines = append(a.engines, e)
	return e
}

// sortScratch returns the arena's shared sort scratch buffer with room
// for at least n elements, growing it through the slab classes on demand.
func (a *Arena) sortScratch(n int) []time.Duration {
	if cap(a.scratch) < n {
		a.putDur(a.scratch)
		a.scratch = a.getDur(n)
	}
	return a.scratch[:cap(a.scratch)]
}

// Reset reclaims every slab into the class free lists and recycles the
// object shells and engines. All objects checked out since the previous
// Reset are invalidated: their storage is gone, and their next query or
// growing recording panics. The arena keeps its storage, so the following
// run's checkouts are warm.
func (a *Arena) Reset() {
	a.gen++
	a.resets++
	for i, s := range a.samples {
		a.putDur(s.values)
		a.putDur(s.sorted)
		s.values = nil
		s.sorted = nil
		s.sortedN = 0
		a.samples[i] = nil
		a.freeSamples = append(a.freeSamples, s)
	}
	a.samples = a.samples[:0]
	for i, li := range a.levels {
		a.putPts(li.transitions)
		li.transitions = nil
		li.level = 0
		li.lastChange = 0
		li.integral = 0
		a.levels[i] = nil
		a.freeLevels = append(a.freeLevels, li)
	}
	a.levels = a.levels[:0]
	for i, ts := range a.series {
		a.putPts(ts.Points)
		ts.Points = nil
		ts.Name = ""
		a.series[i] = nil
		a.freeSeries = append(a.freeSeries, ts)
	}
	a.series = a.series[:0]
	for i, sl := range a.slabs {
		a.putDur(sl)
		a.slabs[i] = nil
	}
	a.slabs = a.slabs[:0]
	for i, e := range a.engines {
		e.Reset(0)
		a.engines[i] = nil
		a.freeEngines = append(a.freeEngines, e)
	}
	a.engines = a.engines[:0]
	a.putDur(a.scratch)
	a.scratch = nil
}

// grow moves sl to a slab from free with room for at least need
// elements, preserving contents. gen is the growing handle's generation:
// a stale handle panics here instead of drawing from the new run's slabs.
func grow[T any](a *Arena, gen uint64, free *[slabClasses][][]T, sl []T, need int, elemBytes int64) []T {
	a.check(gen)
	nw := slabGet(a, free, need, elemBytes)[:len(sl)]
	copy(nw, sl)
	slabPut(a, free, sl, elemBytes)
	return nw
}

// arenaPool is the process-wide free list of warm arenas shared by
// benchmark iterations and sweep workers. Slab contents never influence
// results (checkouts are zero-length or zeroed), so sharing across
// figure invocations is safe; it only keeps storage warm.
var arenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// GetArena checks a warm arena out of the process-wide pool, or builds a
// fresh one. Pair with PutArena.
func GetArena() *Arena {
	arenaPool.mu.Lock()
	if k := len(arenaPool.free); k > 0 {
		a := arenaPool.free[k-1]
		arenaPool.free[k-1] = nil
		arenaPool.free = arenaPool.free[:k-1]
		arenaPool.mu.Unlock()
		return a
	}
	arenaPool.mu.Unlock()
	return NewArena()
}

// PutArena resets a and returns it to the process-wide pool. The caller
// must hold no live handles into it.
func PutArena(a *Arena) {
	a.Reset()
	arenaPool.mu.Lock()
	arenaPool.free = append(arenaPool.free, a)
	arenaPool.mu.Unlock()
}
