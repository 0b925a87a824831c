package live

import (
	"sort"
	"time"

	"memca/internal/stats"
	"memca/internal/telemetry"
)

// Report is the assembled view of one live run: the time-ordered event
// log plus per-trace critical-path attributions in the simulator's record
// types, ready for the shared exporters.
type Report struct {
	// TierNames labels the tiers, index-aligned with event tier ids.
	TierNames []string
	// Events is the (T, Seq)-ordered span-event log.
	Events []telemetry.SpanEvent
	// Attributions holds one record per closed trace (completed or
	// abandoned), ordered by (Start, TraceID).
	Attributions []telemetry.Attribution
	// Open counts traces that never closed (no complete/abandon event) —
	// requests still in flight at snapshot time.
	Open int
	// Orphans counts unclosed tier spans (a service-start without its
	// service-end, a tier-request without service-start or drop) inside
	// closed traces. Non-zero means a tier's instrumentation leaked a
	// span.
	Orphans int
	// DroppedEvents is the collector's discarded-event count; attribution
	// over a truncated log undercounts, so treat non-zero as a sizing
	// error.
	DroppedEvents uint64
}

// traceBuild accumulates one trace's assembly state during the event walk.
type traceBuild struct {
	start     time.Duration
	end       time.Duration
	started   bool
	ended     bool
	abandoned bool
	attempts  int
	drops     int

	queue    []time.Duration
	service  []time.Duration
	reqAt    []time.Duration
	svcAt    []time.Duration
	lastFail time.Duration

	retransWait time.Duration
	order       int
}

// Report assembles the collector's events into per-trace attributions.
// Call it after recording quiesces.
func (c *Collector) Report() Report {
	events := c.Events()
	tiers := len(c.tierNames)
	builds := make(map[uint64]*traceBuild)
	order := 0
	get := func(id uint64, t time.Duration) *traceBuild {
		b, ok := builds[id]
		if !ok {
			b = &traceBuild{
				start:    t,
				queue:    make([]time.Duration, tiers),
				service:  make([]time.Duration, tiers),
				reqAt:    make([]time.Duration, tiers),
				svcAt:    make([]time.Duration, tiers),
				lastFail: -1,
				order:    order,
			}
			for i := 0; i < tiers; i++ {
				b.reqAt[i] = -1
				b.svcAt[i] = -1
			}
			order++
			builds[id] = b
		}
		return b
	}

	for i := range events {
		e := &events[i]
		tier := int(e.Tier)
		tierOK := tier >= 0 && tier < tiers
		switch e.Kind {
		case KindSubmit:
			b := get(e.TraceID, e.T)
			b.attempts++
			if e.Attempt == 0 {
				b.start = e.T
				b.started = true
			} else if b.lastFail >= 0 {
				// Retransmission wait: the span between the failed
				// attempt's drop (or the client noticing the failure)
				// and this resubmission — the live analogue of the
				// simulator's drop→resubmit attribution.
				b.retransWait += e.T - b.lastFail
				b.lastFail = -1
			}
		case KindTierRequest:
			if b := get(e.TraceID, e.T); tierOK {
				b.reqAt[tier] = e.T
			}
		case KindServiceStart:
			if b := get(e.TraceID, e.T); tierOK {
				if b.reqAt[tier] >= 0 {
					b.queue[tier] += e.T - b.reqAt[tier]
					b.reqAt[tier] = -1
				}
				b.svcAt[tier] = e.T
			}
		case KindServiceEnd:
			if b := get(e.TraceID, e.T); tierOK {
				if b.svcAt[tier] >= 0 {
					b.service[tier] += e.T - b.svcAt[tier]
					b.svcAt[tier] = -1
				}
			}
		case KindDrop:
			b := get(e.TraceID, e.T)
			b.drops++
			b.lastFail = e.T
			if tierOK {
				// The refusing tier's queue-enter must not leak into the
				// next attempt's queueing time.
				b.reqAt[tier] = -1
			}
		case KindRetransmitScheduled:
			b := get(e.TraceID, e.T)
			if b.lastFail < 0 {
				// No tier recorded a drop (e.g. a transport error): anchor
				// the wait at the client's failure observation instead.
				b.lastFail = e.T
			}
		case KindComplete:
			b := get(e.TraceID, e.T)
			b.end = e.T
			b.ended = true
		case KindAbandoned:
			b := get(e.TraceID, e.T)
			b.end = e.T
			b.ended = true
			b.abandoned = true
		}
	}

	rep := Report{
		TierNames:     c.tierNames,
		Events:        events,
		DroppedEvents: c.EventsDropped(),
	}
	ids := make([]uint64, 0, len(builds))
	for id := range builds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return builds[ids[i]].order < builds[ids[j]].order })
	for _, id := range ids {
		b := builds[id]
		if !b.ended {
			rep.Open++
			continue
		}
		var totalQ, totalS time.Duration
		for i := 0; i < tiers; i++ {
			totalQ += b.queue[i]
			totalS += b.service[i]
			if b.reqAt[i] >= 0 || b.svcAt[i] >= 0 {
				rep.Orphans++
			}
		}
		rt := b.end - b.start
		rep.Attributions = append(rep.Attributions, telemetry.Attribution{
			TraceID:     id,
			Start:       b.start,
			End:         b.end,
			RT:          rt,
			Attempts:    b.attempts,
			Drops:       b.drops,
			Abandoned:   b.abandoned,
			Queue:       b.queue,
			Service:     b.service,
			RetransWait: b.retransWait,
			Other:       rt - totalQ - totalS - b.retransWait,
		})
	}
	sort.Slice(rep.Attributions, func(i, j int) bool {
		a, b := &rep.Attributions[i], &rep.Attributions[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.TraceID < b.TraceID
	})
	return rep
}

// Timelines books every attribution into one timeline per resolution
// (covering [0, last close]), the structure the blindness analysis and
// the timeline CSV exporter consume.
func (r *Report) Timelines(resolutions ...time.Duration) ([]*telemetry.Timeline, error) {
	horizon := time.Duration(0)
	for i := range r.Attributions {
		if end := r.Attributions[i].End; end > horizon {
			horizon = end
		}
	}
	if horizon == 0 {
		horizon = time.Second
	}
	out := make([]*telemetry.Timeline, 0, len(resolutions))
	for _, res := range resolutions {
		tl, err := telemetry.NewTimeline(res, horizon)
		if err != nil {
			return nil, err
		}
		for i := range r.Attributions {
			a := &r.Attributions[i]
			tl.Add(a.End, a.RT, a.TotalQueue(), a.Drops)
		}
		out = append(out, tl)
	}
	return out, nil
}

// TailOver returns the attributions with RT >= threshold — the records an
// aggregate monitor would need to explain but cannot.
func (r *Report) TailOver(threshold time.Duration) []telemetry.Attribution {
	var out []telemetry.Attribution
	for i := range r.Attributions {
		if r.Attributions[i].RT >= threshold {
			out = append(out, r.Attributions[i])
		}
	}
	return out
}

// PercentileRT returns the pct-th percentile (0-100, nearest-rank on the
// sorted set) of closed-trace response times, or 0 with no traces.
func (r *Report) PercentileRT(pct float64) time.Duration {
	if len(r.Attributions) == 0 {
		return 0
	}
	rts := make([]time.Duration, len(r.Attributions))
	for i := range r.Attributions {
		rts[i] = r.Attributions[i].RT
	}
	return stats.NearestRank(rts, pct/100)
}
