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

	a, err := trace.Create(path, trace.CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(trace.AppendCSVRecord(a.Line(), header))
	for i := range recs {
		r := &recs[i]
		b := strconv.AppendUint(a.Line(), r.TraceID, 10)
		b = strconv.AppendInt(append(b, ','), int64(r.Class), 10)
		b = appendFixedSecs(append(b, ','), r.Start)
		b = appendFixedSecs(append(b, ','), r.End)
		b = appendFixedMs(append(b, ','), r.RT)
		b = strconv.AppendInt(append(b, ','), int64(r.Attempts), 10)
		b = strconv.AppendInt(append(b, ','), int64(r.Drops), 10)
		b = strconv.AppendBool(append(b, ','), r.Abandoned)
		for t := range tierNames {
			var q, s time.Duration
			if t < len(r.Queue) {
				q, s = r.Queue[t], r.Service[t]
			}
			b = appendFixedMs(append(b, ','), q)
			b = appendFixedMs(append(b, ','), s)
		}
		b = appendFixedMs(append(b, ','), r.RetransWait)
		b = appendFixedMs(append(b, ','), r.Other)
		a.Put(append(b, '\n'))
	}
	return a.Close()
}

// WriteTimelineCSV exports the latency timeline of one series with one
// row per window: the close count, drops, and mean and peak response and
// queueing time.
func WriteTimelineCSV(path string, fs *FeatureSeries) error {
	a, err := trace.Create(path, trace.CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(append(a.Line(), "window_start_s,count,drops,mean_rt_ms,max_rt_ms,mean_queue_ms,max_queue_ms\n"...))
	for i, p := range fs.Windows() {
		meanQ := time.Duration(0)
		if p.Count > 0 {
			meanQ = p.SumQueue / time.Duration(p.Count)
		}
		b := appendFixedSecs(a.Line(), fs.WindowStart(i))
		b = strconv.AppendInt(append(b, ','), int64(p.Count), 10)
		b = strconv.AppendInt(append(b, ','), int64(p.Drops), 10)
		b = appendFixedMs(append(b, ','), p.MeanRT())
		b = appendFixedMs(append(b, ','), p.MaxRT)
		b = appendFixedMs(append(b, ','), meanQ)
		b = appendFixedMs(append(b, ','), p.MaxQueue)
		a.Put(append(b, '\n'))
	}
	return a.Close()
}

// WriteFeaturesCSV exports one feature series with one row per window:
// the raw counts plus the derived detection features (retransmission-wait
// share, drop rate, queue-vs-service split, tail-over count).
func WriteFeaturesCSV(path string, fs *FeatureSeries) error {
	a, err := trace.Create(path, trace.CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(append(a.Line(), "window_start_s,count,attempts,drops,tail_over,"+
		"retrans_share,drop_rate,queue_share,service_share,mean_rt_ms\n"...))
	for i, w := range fs.Windows() {
		b := appendFixedSecs(a.Line(), fs.WindowStart(i))
		b = strconv.AppendInt(append(b, ','), int64(w.Count), 10)
		b = strconv.AppendInt(append(b, ','), int64(w.Attempts), 10)
		b = strconv.AppendInt(append(b, ','), int64(w.Drops), 10)
		b = strconv.AppendInt(append(b, ','), int64(w.TailOver), 10)
		b = strconv.AppendFloat(append(b, ','), w.RetransShare(), 'f', 4, 64)
		b = strconv.AppendFloat(append(b, ','), w.DropRate(), 'f', 4, 64)
		b = strconv.AppendFloat(append(b, ','), w.QueueShare(), 'f', 4, 64)
		b = strconv.AppendFloat(append(b, ','), w.ServiceShare(), 'f', 4, 64)
		b = appendFixedMs(append(b, ','), w.MeanRT())
		a.Put(append(b, '\n'))
	}
	return a.Close()
}

// WriteBreakdownCSV exports labeled breakdowns with one row per component
// per label: (run, component, time_ms, share).
func WriteBreakdownCSV(path string, tierNames []string, labels []string, breakdowns []Breakdown) error {
	components := make([]string, 0, 2*len(tierNames))
	for _, name := range tierNames {
		components = append(components, name+"_queue", name+"_service")
	}
	a, err := trace.Create(path, trace.CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(append(a.Line(), "run,component,time_ms,share\n"...))
	for i, label := range labels {
		bd := &breakdowns[i]
		total := float64(bd.RT)
		put := func(component string, d time.Duration) {
			b := trace.AppendCSVField(a.Line(), label)
			b = trace.AppendCSVField(append(b, ','), component)
			b = appendFixedMs(append(b, ','), d)
			if total <= 0 {
				b = append(b, ",0"...)
			} else {
				b = strconv.AppendFloat(append(b, ','), float64(d)/total, 'f', 4, 64)
			}
			a.Put(append(b, '\n'))
		}
		for t := range tierNames {
			put(components[2*t], bd.Queue[t])
			put(components[2*t+1], bd.Service[t])
		}
		put("retrans_wait", bd.RetransWait)
		put("other", bd.Other)
	}
	return a.Close()
}
