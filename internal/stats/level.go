package stats

import (
	"sort"
	"time"
)

// LevelIntegrator tracks a piecewise-constant integer level over time (e.g.
// busy server stations, queue occupancy) and integrates it exactly, as an
// int64 count of level·nanoseconds. It generalizes BusyIntegrator to
// levels above 1.
type LevelIntegrator struct {
	transitions []Point
	level       int
	lastChange  time.Duration
	integral    int64 // level·ns

	a   *Arena
	gen uint64
}

// NewLevelIntegrator returns a heap-backed integrator at level 0 at time 0.
func NewLevelIntegrator() *LevelIntegrator {
	return &LevelIntegrator{}
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
	if li.a != nil && len(li.transitions) == cap(li.transitions) {
		li.growTransitions(len(li.transitions) + 1)
	}
	li.transitions = append(li.transitions, Point{T: t, V: float64(level)})
}

// Level returns the current level.
func (li *LevelIntegrator) Level() int { return li.level }

// Integral returns the accumulated level-seconds up to time t.
func (li *LevelIntegrator) Integral(t time.Duration) float64 {
	total := li.integral
	if t > li.lastChange {
		total += int64(li.level) * int64(t-li.lastChange)
	}
	return float64(total) / float64(time.Second)
}

// WindowAverage returns the time-weighted mean level over [from, to). It
// binary-searches for the window start, so periodic utilization sampling
// stays cheap no matter how long the transition history has grown.
func (li *LevelIntegrator) WindowAverage(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	// First transition strictly inside the window; the level in force at
	// `from` is the one set by the transition before it (0 if none).
	idx := sort.Search(len(li.transitions), func(i int) bool {
		return li.transitions[i].T > from
	})
	level := 0.0
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
