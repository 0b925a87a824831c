package telemetry

import (
	"cmp"
	"slices"
	"strconv"
	"time"

	"memca/internal/queueing"
)

// chromeKind names one kind of Chrome trace-event record.
type chromeKind uint8

const (
	chromeMeta       chromeKind = iota // process_name metadata row
	chromeRequest                      // client request span
	chromeQueue                        // tier queue span
	chromeService                      // tier service span
	chromePreempt                      // capacity-preempt instant
	chromeDrop                         // drop instant
	chromeAbandoned                    // abandoned instant
	chromeRetransmit                   // retransmit-scheduled instant with args
)

var chromeNames = [...]string{
	chromeMeta:       "process_name",
	chromeRequest:    "request",
	chromeQueue:      "queue",
	chromeService:    "service",
	chromePreempt:    "capacity-preempt",
	chromeDrop:       "drop",
	chromeAbandoned:  "abandoned",
	chromeRetransmit: "retransmit-scheduled",
}

// chromeRecord is one Chrome trace-event in compact form. The line it
// renders to is what encoding/json makes of the event object
// {name, ph, ts, dur, pid, tid, s, args{name, attempt, fire_at_ms}} with
// omitempty on dur, s and the args fields.
type chromeRecord struct {
	ts    time.Duration // event or span start time
	dur   time.Duration // span length; the fire time for retransmit-scheduled
	seq   uint64        // origin sequence number: orders ties at one instant
	tid   uint64        // trace ID
	pid   int32         // tier+1; 0 is the client
	att   uint16        // attempt
	kind  chromeKind
	order int32 // emission order: the final sort key, keeping the sort stable
}

// WriteChromeTrace reconstructs spans from a span-event sequence and
// writes them as Chrome trace-event JSON, loadable in Perfetto or
// about://tracing. Each tier is a process (pid = tier+1; the client is
// pid 0) and each trace is a thread, so one row of the viewer shows one
// request's full causal path: queue and service slabs per tier, drop and
// retransmission markers in between.
//
// The ring may have overwritten the oldest events; spans whose start was
// lost are skipped.
func WriteChromeTrace(path string, tierNames []string, events []SpanEvent) error {
	// Open spans: the client request per trace, queue and service per
	// (trace, tier). reqOpen doubles as the dense trace index.
	var reqOpen denseMap[openSpan]
	var tierSpans openTable
	keyOf := func(e *SpanEvent) uint64 {
		trace, _, _ := reqOpen.at(e.TraceID)
		return tierKey(trace, e.Tier)
	}

	// Besides the process rows, every record comes from one event of a
	// kind the walk below emits on; the other kinds (submits, tier
	// requests, ...) at most open spans. Counting the emitting kinds sizes
	// recs up front, as OTLP sizes its span lists.
	n := len(tierNames) + 1
	for i := range events {
		switch events[i].Kind {
		case queueing.SpanServiceStart, queueing.SpanServiceEnd,
			queueing.SpanServicePreempt, queueing.SpanDrop,
			queueing.SpanComplete, queueing.SpanRetransmit, queueing.SpanAbandon:
			n++
		}
	}
	recs := make([]chromeRecord, 0, n)
	add := func(r chromeRecord) {
		r.order = int32(len(recs))
		recs = append(recs, r)
	}
	for pid := 0; pid <= len(tierNames); pid++ {
		add(chromeRecord{kind: chromeMeta, pid: int32(pid)})
	}
	addX := func(kind chromeKind, pid int32, trace uint64, open openSpan, end time.Duration, attempt uint16) {
		add(chromeRecord{ts: open.t, dur: end - open.t, seq: open.seq, tid: trace, pid: pid, att: attempt, kind: kind})
	}
	addI := func(kind chromeKind, pid int32, e *SpanEvent) {
		add(chromeRecord{ts: e.T, dur: e.Aux, seq: e.Seq, tid: e.TraceID, pid: pid, att: e.Attempt, kind: kind})
	}

	for i := range events {
		e := &events[i]
		tierPID := int32(e.Tier) + 1
		switch e.Kind {
		case queueing.SpanSubmit:
			if e.Attempt == 0 {
				_, req, _ := reqOpen.at(e.TraceID)
				*req = openSpan{e.T, e.Seq, true}
			}
		case queueing.SpanTierRequest:
			tierSpans.advance(keyOf(e), e)
		case queueing.SpanServiceStart:
			if q := tierSpans.advance(keyOf(e), e); q.ok {
				addX(chromeQueue, tierPID, e.TraceID, q, e.T, e.Attempt)
			}
		case queueing.SpanServiceEnd:
			if svc := tierSpans.advance(keyOf(e), e); svc.ok {
				addX(chromeService, tierPID, e.TraceID, svc, e.T, e.Attempt)
			}
		case queueing.SpanServicePreempt:
			addI(chromePreempt, tierPID, e)
		case queueing.SpanDrop:
			tierSpans.advance(keyOf(e), e)
			addI(chromeDrop, tierPID, e)
		case queueing.SpanComplete:
			if _, req, _ := reqOpen.at(e.TraceID); req.ok {
				addX(chromeRequest, 0, e.TraceID, *req, e.T, e.Attempt)
				req.ok = false
			}
		case queueing.SpanRetransmit:
			addI(chromeRetransmit, 0, e)
		case queueing.SpanAbandon:
			_, req, _ := reqOpen.at(e.TraceID)
			req.ok = false
			addI(chromeAbandoned, 0, e)
		}
	}

	// Primary start time, secondary origin sequence number so ties at one
	// virtual instant keep the tracer's causal order; emission order makes
	// the sort stable.
	slices.SortFunc(recs, func(a, b chromeRecord) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.order, b.order)
	})

	// The process names, pre-quoted: pid 0 is the client, pid i+1 tier i.
	procNames := make([][]byte, 0, len(tierNames)+1)
	procNames = append(procNames, appendString(nil, "client"))
	for i, name := range tierNames {
		procNames = append(procNames, appendString(nil, "tier"+strconv.Itoa(i)+":"+name))
	}

	x, err := createExport(path)
	if err != nil {
		return err
	}
	// One event per line keeps the file diffable and the goldens readable.
	x.put(append(x.line(), "{\"traceEvents\":[\n"...))
	for i := range recs {
		b := appendChromeRecord(x.line(), &recs[i], procNames)
		if i < len(recs)-1 {
			b = append(b, ',')
		}
		x.put(append(b, '\n'))
	}
	x.put(append(x.line(), "],\"displayTimeUnit\":\"ms\"}\n"...))
	return x.close()
}

// appendChromeRecord appends r's trace-event object.
func appendChromeRecord(b []byte, r *chromeRecord, procNames [][]byte) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, chromeNames[r.kind]...)
	switch r.kind {
	case chromeMeta:
		b = append(b, `","ph":"M","ts":0,"pid":`...)
		b = appendInt32(b, r.pid)
		b = append(b, `,"tid":0,"args":{"name":`...)
		b = append(b, procNames[r.pid]...)
		return append(b, "}}"...)
	case chromeRequest, chromeQueue, chromeService:
		b = append(b, `","ph":"X","ts":`...)
		b = appendUsec(b, r.ts)
		b = append(b, `,"dur":`...)
		b = appendUsec(b, r.dur)
		b = appendPIDTID(b, r)
		b = append(b, `,"args":{"attempt":`...)
		b = appendInt32(b, int32(r.att))
		return append(b, "}}"...)
	}
	b = append(b, `","ph":"i","ts":`...)
	b = appendUsec(b, r.ts)
	b = appendPIDTID(b, r)
	b = append(b, `,"s":"t"`...)
	if r.kind == chromeRetransmit {
		b = append(b, `,"args":{"attempt":`...)
		b = appendInt32(b, int32(r.att))
		b = append(b, `,"fire_at_ms":`...)
		b = appendMsec(b, r.dur)
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendPIDTID(b []byte, r *chromeRecord) []byte {
	b = append(b, `,"pid":`...)
	b = appendInt32(b, r.pid)
	b = append(b, `,"tid":`...)
	return strconv.AppendUint(b, r.tid, 10)
}

func appendInt32(b []byte, v int32) []byte { return strconv.AppendInt(b, int64(v), 10) }

// WriteChromeTrace exports the tracer's event ring as Chrome trace-event
// JSON. It reads the ring in place, rotating a wrapped ring so its oldest
// event comes first, so it must not run while the tracer records.
func (t *Tracer) WriteChromeTrace(path string) error {
	return WriteChromeTrace(path, t.TierNames(), t.orderedEvents())
}
