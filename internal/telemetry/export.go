package telemetry

import (
	"strconv"
	"time"

	"memca/internal/trace"
)

// WriteAttributionCSV exports attribution records with one row per trace:
// identity, response time, attempt/drop counts, and the per-tier
// queue/service decomposition plus retransmission wait and residual.
func WriteAttributionCSV(path string, tierNames []string, recs []Attribution) error {
	header := []string{"trace_id", "class", "start_s", "end_s", "rt_ms", "attempts", "drops", "abandoned"}
	for _, name := range tierNames {
		header = append(header, name+"_queue_ms", name+"_service_ms")
	}
	header = append(header, "retrans_wait_ms", "other_ms")

	rows := make([][]string, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		row := make([]string, 0, len(header))
		row = append(row,
			strconv.FormatUint(r.TraceID, 10),
			strconv.Itoa(r.Class),
			fmtSecs(r.Start),
			fmtSecs(r.End),
			fmtMs(r.RT),
			strconv.Itoa(r.Attempts),
			strconv.Itoa(r.Drops),
			strconv.FormatBool(r.Abandoned),
		)
		for t := range tierNames {
			var q, s time.Duration
			if t < len(r.Queue) {
				q, s = r.Queue[t], r.Service[t]
			}
			row = append(row, fmtMs(q), fmtMs(s))
		}
		row = append(row, fmtMs(r.RetransWait), fmtMs(r.Other))
		rows = append(rows, row)
	}
	return trace.WriteCSV(path, header, rows)
}

// WriteTimelineCSV exports one timeline with one row per window.
func WriteTimelineCSV(path string, tl *Timeline) error {
	header := []string{"window_start_s", "count", "drops", "mean_rt_ms", "max_rt_ms", "mean_queue_ms", "max_queue_ms"}
	pts := tl.Points()
	rows := make([][]string, 0, len(pts))
	for i, p := range pts {
		meanQ := time.Duration(0)
		if p.Count > 0 {
			meanQ = p.SumQueue / time.Duration(p.Count)
		}
		rows = append(rows, []string{
			fmtSecs(tl.WindowStart(i)),
			strconv.Itoa(p.Count),
			strconv.Itoa(p.Drops),
			fmtMs(p.MeanRT()),
			fmtMs(p.MaxRT),
			fmtMs(meanQ),
			fmtMs(p.MaxQueue),
		})
	}
	return trace.WriteCSV(path, header, rows)
}

// WriteFeaturesCSV exports one feature series with one row per window:
// the raw counts plus the derived detection features (retransmission-wait
// share, drop rate, queue-vs-service split, tail-over count).
func WriteFeaturesCSV(path string, fs *FeatureSeries) error {
	header := []string{
		"window_start_s", "count", "attempts", "drops", "tail_over",
		"retrans_share", "drop_rate", "queue_share", "service_share", "mean_rt_ms",
	}
	wins := fs.Windows()
	rows := make([][]string, 0, len(wins))
	fmtShare := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for i, w := range wins {
		rows = append(rows, []string{
			fmtSecs(fs.WindowStart(i)),
			strconv.Itoa(w.Count),
			strconv.Itoa(w.Attempts),
			strconv.Itoa(w.Drops),
			strconv.Itoa(w.TailOver),
			fmtShare(w.RetransShare()),
			fmtShare(w.DropRate()),
			fmtShare(w.QueueShare()),
			fmtShare(w.ServiceShare()),
			fmtMs(w.MeanRT()),
		})
	}
	return trace.WriteCSV(path, header, rows)
}

// WriteBreakdownCSV exports labeled breakdowns with one row per component
// per label: (run, component, time_ms, share).
func WriteBreakdownCSV(path string, tierNames []string, labels []string, breakdowns []Breakdown) error {
	rows := make([][]string, 0, len(labels)*(2*len(tierNames)+2))
	for i, label := range labels {
		b := &breakdowns[i]
		total := float64(b.RT)
		share := func(d time.Duration) string {
			if total <= 0 {
				return "0"
			}
			return strconv.FormatFloat(float64(d)/total, 'f', 4, 64)
		}
		add := func(component string, d time.Duration) {
			rows = append(rows, []string{label, component, fmtMs(d), share(d)})
		}
		for t, name := range tierNames {
			add(name+"_queue", b.Queue[t])
			add(name+"_service", b.Service[t])
		}
		add("retrans_wait", b.RetransWait)
		add("other", b.Other)
	}
	return trace.WriteCSV(path, []string{"run", "component", "time_ms", "share"}, rows)
}
