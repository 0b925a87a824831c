package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public API call. All spans of one op share Op.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index into the recorder's spans, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spans records spans in memory; a nil *spans records nothing, so an
// untraced run pays one nil check per call site.
type spans struct {
	epoch time.Time
	mu    sync.Mutex
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when not tracing).
func (s *spans) begin(name string, op, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(s.list) - 1
}

// end closes the span id returned by begin.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	s.list[id].End = now
	s.mu.Unlock()
}

// call wraps fn in a span.
func (s *spans) call(name string, op, parent int, fn func() error) error {
	id := s.begin(name, op, parent)
	err := fn()
	s.end(id)
	return err
}

// selfTimes returns every closed span's self time: its duration minus the
// union of the intervals its children cover.
func (s *spans) selfTimes() []time.Duration {
	children := make([][]int, len(s.list))
	for i, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]time.Duration, len(s.list))
	for i, sp := range s.list {
		if sp.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return s.list[kids[a]].Start < s.list[kids[b]].Start })
		covered, curStart, curEnd := time.Duration(0), time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(s.list[k].Start, sp.Start), min(s.list[k].End, sp.End)
			if s.list[k].End < 0 || ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - curStart
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// perOp sums the durations of the named spans per op and returns the
// per-op totals (one entry per op that has the span).
func (s *spans) perOp(name string) []float64 {
	byOp := map[int]float64{}
	for _, sp := range s.list {
		if sp.Name == name && sp.End >= 0 {
			byOp[sp.Op] += ms(sp.End - sp.Start)
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// write dumps the spans with their self times as JSON, and returns a
// per-name summary of self time for the human report.
func (s *spans) write(path string) (map[string]time.Duration, error) {
	self := s.selfTimes()
	type rec struct {
		span
		SelfNs time.Duration `json:"self_ns"`
	}
	out := make([]rec, len(s.list))
	byName := map[string]time.Duration{}
	for i, sp := range s.list {
		out[i] = rec{sp, self[i]}
		byName[sp.Name] += self[i]
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return byName, nil
}
