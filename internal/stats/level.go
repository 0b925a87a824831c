package stats

import (
	"errors"
	"sort"
	"time"
)

// LevelIntegrator tracks a piecewise-constant integer level over time (e.g.
// busy server stations, queue occupancy, or the adversary's 0/1 burst
// activity) and integrates it exactly, as an int64 count of
// level·nanoseconds.
//
// The level and the integral are always maintained. The transition
// history behind WindowAverage is opt-in: only an integrator on which
// KeepHistory was called records transitions, so the many integrators
// nobody reads windows from cost no memory per level change.
type LevelIntegrator struct {
	transitions []Point
	level       int
	lastChange  time.Duration
	integral    int64 // level·ns

	// history is set by KeepHistory; histFrom and histLevel are the
	// level in force when history began and the time it took effect.
	history   bool
	histFrom  time.Duration
	histLevel int

	a   *Arena
	gen uint64
}

// errNoHistory is the WindowAverage panic value for a window the
// integrator has no history for. A package-level value keeps the panic
// path free of a heap conversion.
var errNoHistory = errors.New("stats: LevelIntegrator window starts before KeepHistory")

// KeepHistory starts recording level transitions, so WindowAverage can
// answer windows that start at or after the integrator's last level
// change. Call it before the run for windows over the whole run; a
// second call is a no-op.
func (li *LevelIntegrator) KeepHistory() {
	if li.history {
		return
	}
	li.history = true
	li.histFrom = li.lastChange
	li.histLevel = li.level
}

// Set records the level at time t. Times must be non-decreasing; setting
// the same level again is a no-op.
//
//memca:hotpath
func (li *LevelIntegrator) Set(t time.Duration, level int) {
	if level == li.level {
		return
	}
	li.integral += int64(li.level) * int64(t-li.lastChange)
	li.level = level
	li.lastChange = t
	if !li.history {
		return
	}
	if len(li.transitions) == cap(li.transitions) {
		li.transitions = grow(li.a, li.gen, &li.a.ptFree, li.transitions, len(li.transitions)+1, ptBytes)
	}
	li.transitions = append(li.transitions, Point{T: t, V: float64(level)})
}

// Level returns the current level.
//
//memca:keep the history tests compare history-on and history-off integrators' levels only through it
func (li *LevelIntegrator) Level() int { return li.level }

// Integral returns the accumulated level-seconds up to time t. Like
// WindowAverage, it panics on a handle from before the arena's last Reset.
//
//memca:keep TestSeedDeterminism fingerprints the exact occupancy integral only through it
func (li *LevelIntegrator) Integral(t time.Duration) float64 {
	li.a.check(li.gen)
	total := li.integral
	if t > li.lastChange {
		total += int64(li.level) * int64(t-li.lastChange)
	}
	return float64(total) / float64(time.Second)
}

// WindowAverage returns the time-weighted mean level over [from, to). It
// binary-searches for the window start, so periodic utilization sampling
// stays cheap no matter how long the transition history has grown.
//
// It panics unless KeepHistory was called before the window starts: an
// integrator without that history cannot answer, and a silent 0 would
// read as an idle tier.
func (li *LevelIntegrator) WindowAverage(from, to time.Duration) float64 {
	li.a.check(li.gen)
	if !li.history || from < li.histFrom {
		panic(errNoHistory)
	}
	if to <= from {
		return 0
	}
	// First transition strictly inside the window; the level in force at
	// `from` is the one set by the transition before it (the level when
	// history began if none).
	idx := sort.Search(len(li.transitions), func(i int) bool {
		return li.transitions[i].T > from
	})
	level := float64(li.histLevel)
	if idx > 0 {
		level = li.transitions[idx-1].V
	}
	var acc float64
	since := from
	for _, tr := range li.transitions[idx:] {
		if tr.T >= to {
			break
		}
		acc += level * (tr.T - since).Seconds()
		level = tr.V
		since = tr.T
	}
	if to > since {
		acc += level * (to - since).Seconds()
	}
	return acc / (to - from).Seconds()
}
