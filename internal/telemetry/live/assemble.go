package live

import (
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

// Report assembles the collector's events into per-trace attributions
// with telemetry.Assemble, the rules the simulator's tracer applies. Call
// it after recording quiesces.
func (c *Collector) Report() Report {
	rep := Report{
		TierNames:     c.tierNames,
		Events:        c.Events(),
		DroppedEvents: c.EventsDropped(),
	}
	rep.Attributions, rep.Open, rep.Orphans = telemetry.Assemble(len(c.tierNames), rep.Events)
	return rep
}

// Timelines books every attribution into one window series per width
// (covering [0, last close], with no tail threshold), the structure the
// blindness analysis and the timeline CSV exporter consume.
func (r *Report) Timelines(widths ...time.Duration) ([]*telemetry.FeatureSeries, error) {
	horizon := time.Duration(0)
	for i := range r.Attributions {
		if end := r.Attributions[i].End; end > horizon {
			horizon = end
		}
	}
	if horizon == 0 {
		horizon = time.Second
	}
	out := make([]*telemetry.FeatureSeries, 0, len(widths))
	for _, res := range widths {
		fs, err := telemetry.NewFeatureSeries(res, horizon, 0)
		if err != nil {
			return nil, err
		}
		for i := range r.Attributions {
			a := &r.Attributions[i]
			var service time.Duration
			for _, sv := range a.Service {
				service += sv
			}
			fs.Add(a.End, a.RT, a.TotalQueue(), service, a.RetransWait, a.Attempts, a.Drops)
		}
		out = append(out, fs)
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
