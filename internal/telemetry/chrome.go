package telemetry

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/queueing"
	"memca/internal/trace"
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

// spanEnd is the closing half of one span, kept in the slot the span's
// opening event reserved: the closing event's time and attempt, and ok
// once the span closed. A slot whose span was never closed (re-opened,
// dropped, abandoned or still open at export) stays not ok.
type spanEnd struct {
	end     time.Duration
	attempt uint16
	ok      bool
}

// WriteChromeTrace reconstructs spans from a span-event sequence and
// writes them as Chrome trace-event JSON, loadable in Perfetto or
// about://tracing. Each tier is a process (pid = tier+1; the client is
// pid 0) and each trace is a thread, so one row of the viewer shows one
// request's full causal path: queue and service slabs per tier, drop and
// retransmission markers in between.
//
// The events must be in (T, Seq) order, as the tracer's ring and the live
// collector's Events hold them: each record is written at the event that
// starts it, so the output is in input order. An out-of-order stream is
// an error. The process-name rows come first among the records at or
// after time zero. The ring may have overwritten the oldest events; spans
// whose start was lost are skipped.
func WriteChromeTrace(path string, tierNames []string, events []SpanEvent) error {
	// Every span-opening event (a first submit, a tier request, a service
	// start) reserves the next slot of ends, so counting them sizes it up
	// front.
	n := 0
	for i := range events {
		e := &events[i]
		if i > 0 && (e.T < events[i-1].T || e.T == events[i-1].T && e.Seq < events[i-1].Seq) {
			return fmt.Errorf("telemetry: chrome trace %s: event %d is out of (T, Seq) order", path, i)
		}
		switch e.Kind {
		case queueing.SpanSubmit:
			if e.Attempt == 0 {
				n++
			}
		case queueing.SpanTierRequest, queueing.SpanServiceStart:
			n++
		}
	}
	ends := make([]spanEnd, 0, n)

	// Pass 1 closes the spans. Open spans: the client request per trace,
	// queue and service per (trace, tier); reqOpen doubles as the dense
	// trace index.
	var reqOpen denseMap[openSpan]
	var tierSpans openTable
	keyOf := func(e *SpanEvent) uint64 {
		trace, _, _ := reqOpen.at(e.TraceID)
		return tierKey(trace, e.Tier)
	}
	reserve := func() openSpan {
		ends = append(ends, spanEnd{})
		return openSpan(len(ends))
	}
	closeSpan := func(s openSpan, e *SpanEvent) {
		if s != 0 {
			ends[s-1] = spanEnd{end: e.T, attempt: e.Attempt, ok: true}
		}
	}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case queueing.SpanSubmit:
			if e.Attempt == 0 {
				_, req, _ := reqOpen.at(e.TraceID)
				*req = reserve()
			}
		case queueing.SpanTierRequest, queueing.SpanServiceStart:
			closeSpan(tierSpans.advance(keyOf(e), e.Kind, reserve()), e)
		case queueing.SpanServiceEnd, queueing.SpanDrop:
			closeSpan(tierSpans.advance(keyOf(e), e.Kind, 0), e)
		case queueing.SpanComplete:
			_, req, _ := reqOpen.at(e.TraceID)
			closeSpan(*req, e)
			*req = 0
		case queueing.SpanAbandon:
			_, req, _ := reqOpen.at(e.TraceID)
			*req = 0
		}
	}

	// The process names, pre-quoted: pid 0 is the client, pid i+1 tier i.
	procNames := make([][]byte, 0, len(tierNames)+1)
	procNames = append(procNames, appendString(nil, "client"))
	for i, name := range tierNames {
		procNames = append(procNames, appendString(nil, "tier"+strconv.Itoa(i)+":"+name))
	}

	x, err := trace.Create(path, jsonBuffer)
	if err != nil {
		return err
	}
	// One event per line keeps the file diffable and the goldens readable;
	// each record after the first opens with the previous line's comma.
	x.Put(append(x.Line(), "{\"traceEvents\":[\n"...))
	lines := 0
	line := func() []byte {
		b := x.Line()
		if lines > 0 {
			b = append(b, ",\n"...)
		}
		lines++
		return b
	}
	putMeta := func() {
		for pid := range procNames {
			x.Put(appendChromeMeta(line(), int32(pid), procNames[pid]))
		}
	}

	// Pass 2 writes each record at the event that starts it, reading
	// span ends from the slots in pass 1's reservation order.
	next := 0
	putSpan := func(kind chromeKind, pid int32, e *SpanEvent) {
		if end := &ends[next]; end.ok {
			x.Put(appendChromeSpan(line(), kind, pid, e, end))
		}
		next++
	}
	meta := false
	for i := range events {
		e := &events[i]
		if !meta && e.T >= 0 {
			putMeta()
			meta = true
		}
		pid := int32(e.Tier) + 1
		switch e.Kind {
		case queueing.SpanSubmit:
			if e.Attempt == 0 {
				putSpan(chromeRequest, 0, e)
			}
		case queueing.SpanTierRequest:
			putSpan(chromeQueue, pid, e)
		case queueing.SpanServiceStart:
			putSpan(chromeService, pid, e)
		case queueing.SpanServicePreempt:
			x.Put(appendChromeInstant(line(), chromePreempt, pid, e))
		case queueing.SpanDrop:
			x.Put(appendChromeInstant(line(), chromeDrop, pid, e))
		case queueing.SpanRetransmit:
			x.Put(appendChromeInstant(line(), chromeRetransmit, 0, e))
		case queueing.SpanAbandon:
			x.Put(appendChromeInstant(line(), chromeAbandoned, 0, e))
		}
	}
	if !meta {
		putMeta()
	}
	x.Put(append(x.Line(), "\n],\"displayTimeUnit\":\"ms\"}\n"...))
	return x.Close()
}

// The appenders below write one trace-event object each: what
// encoding/json makes of {name, ph, ts, dur, pid, tid, s, args{name,
// attempt, fire_at_ms}} with omitempty on dur, s and the args fields.

// appendChromeMeta appends the process_name row of pid; name is pre-quoted.
func appendChromeMeta(b []byte, pid int32, name []byte) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, chromeNames[chromeMeta]...)
	b = append(b, `","ph":"M","ts":0,"pid":`...)
	b = appendInt32(b, pid)
	b = append(b, `,"tid":0,"args":{"name":`...)
	b = append(b, name...)
	return append(b, "}}"...)
}

// appendChromeSpan appends the X record of a span opened by e and closed
// as end records.
func appendChromeSpan(b []byte, kind chromeKind, pid int32, e *SpanEvent, end *spanEnd) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, chromeNames[kind]...)
	b = append(b, `","ph":"X","ts":`...)
	b = appendUsec(b, e.T)
	b = append(b, `,"dur":`...)
	b = appendUsec(b, end.end-e.T)
	b = appendPIDTID(b, pid, e.TraceID)
	b = append(b, `,"args":{"attempt":`...)
	b = appendInt32(b, int32(end.attempt))
	return append(b, "}}"...)
}

// appendChromeInstant appends the instant record of e; a
// retransmit-scheduled instant carries its attempt and fire time.
func appendChromeInstant(b []byte, kind chromeKind, pid int32, e *SpanEvent) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, chromeNames[kind]...)
	b = append(b, `","ph":"i","ts":`...)
	b = appendUsec(b, e.T)
	b = appendPIDTID(b, pid, e.TraceID)
	b = append(b, `,"s":"t"`...)
	if kind == chromeRetransmit {
		b = append(b, `,"args":{"attempt":`...)
		b = appendInt32(b, int32(e.Attempt))
		b = append(b, `,"fire_at_ms":`...)
		b = appendMsec(b, e.Aux)
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendPIDTID(b []byte, pid int32, tid uint64) []byte {
	b = append(b, `,"pid":`...)
	b = appendInt32(b, pid)
	b = append(b, `,"tid":`...)
	return strconv.AppendUint(b, tid, 10)
}

func appendInt32(b []byte, v int32) []byte { return strconv.AppendInt(b, int64(v), 10) }

// WriteChromeTrace exports the tracer's event ring as Chrome trace-event
// JSON. It reads the ring in place, rotating a wrapped ring so its oldest
// event comes first (which puts it in (T, Seq) order), so it must not run
// while the tracer records.
func (t *Tracer) WriteChromeTrace(path string) error {
	return WriteChromeTrace(path, t.TierNames(), t.orderedEvents())
}
