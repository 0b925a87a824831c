package telemetry

import (
	"cmp"
	"slices"
	"strconv"
	"time"

	"memca/internal/queueing"
	"memca/internal/trace"
)

// The reference exporters below are the sort-based span exporters kept
// as the differential oracle of FuzzSpanExport: each collects every
// record of the walk into a table and sorts it afterwards, with Go maps
// for the open spans. The production exporters must write the same
// bytes without the table and the sort.

// refTierKey names one (trace, tier) pair's open spans.
type refTierKey struct {
	trace uint64
	tier  int8
}

// refOpen is an open span's start.
type refOpen struct {
	t   time.Duration
	seq uint64
}

// refTierOpen is the reference's open-span book: the open queue and
// service spans per (trace, tier).
type refTierOpen struct {
	queue, svc map[refTierKey]refOpen
}

func newRefTierOpen() refTierOpen {
	return refTierOpen{queue: map[refTierKey]refOpen{}, svc: map[refTierKey]refOpen{}}
}

// advance applies a tier request, service start, service end or drop and
// returns the span it closes, if any.
func (o refTierOpen) advance(e *SpanEvent) (closed refOpen, ok bool) {
	k := refTierKey{e.TraceID, e.Tier}
	switch e.Kind {
	case queueing.SpanTierRequest:
		o.queue[k] = refOpen{e.T, e.Seq}
	case queueing.SpanServiceStart:
		closed, ok = o.queue[k]
		delete(o.queue, k)
		o.svc[k] = refOpen{e.T, e.Seq}
	case queueing.SpanServiceEnd:
		closed, ok = o.svc[k]
		delete(o.svc, k)
	case queueing.SpanDrop:
		delete(o.queue, k)
	}
	return closed, ok
}

// refChromeRecord is one Chrome trace-event of the reference exporter.
type refChromeRecord struct {
	ts    time.Duration // event or span start time
	dur   time.Duration // span length; the fire time for retransmit-scheduled
	seq   uint64        // origin sequence number: orders ties at one instant
	tid   uint64
	pid   int32
	att   uint16
	kind  chromeKind
	order int // emission order: the final sort key, keeping the sort stable
}

// refWriteChromeTrace is the sort-based Chrome exporter: records sorted
// by (start, origin sequence number, emission order), the process-name
// rows at (0, 0) ahead of every other record there.
func refWriteChromeTrace(path string, tierNames []string, events []SpanEvent) error {
	var recs []refChromeRecord
	add := func(r refChromeRecord) {
		r.order = len(recs)
		recs = append(recs, r)
	}
	for pid := 0; pid <= len(tierNames); pid++ {
		add(refChromeRecord{kind: chromeMeta, pid: int32(pid)})
	}
	addX := func(kind chromeKind, pid int32, trace uint64, open refOpen, end time.Duration, attempt uint16) {
		add(refChromeRecord{ts: open.t, dur: end - open.t, seq: open.seq, tid: trace, pid: pid, att: attempt, kind: kind})
	}
	addI := func(kind chromeKind, pid int32, e *SpanEvent) {
		add(refChromeRecord{ts: e.T, dur: e.Aux, seq: e.Seq, tid: e.TraceID, pid: pid, att: e.Attempt, kind: kind})
	}

	reqOpen := map[uint64]refOpen{}
	tiers := newRefTierOpen()
	for i := range events {
		e := &events[i]
		tierPID := int32(e.Tier) + 1
		switch e.Kind {
		case queueing.SpanSubmit:
			if e.Attempt == 0 {
				reqOpen[e.TraceID] = refOpen{e.T, e.Seq}
			}
		case queueing.SpanTierRequest:
			tiers.advance(e)
		case queueing.SpanServiceStart:
			if q, ok := tiers.advance(e); ok {
				addX(chromeQueue, tierPID, e.TraceID, q, e.T, e.Attempt)
			}
		case queueing.SpanServiceEnd:
			if svc, ok := tiers.advance(e); ok {
				addX(chromeService, tierPID, e.TraceID, svc, e.T, e.Attempt)
			}
		case queueing.SpanServicePreempt:
			addI(chromePreempt, tierPID, e)
		case queueing.SpanDrop:
			tiers.advance(e)
			addI(chromeDrop, tierPID, e)
		case queueing.SpanComplete:
			if req, ok := reqOpen[e.TraceID]; ok {
				addX(chromeRequest, 0, e.TraceID, req, e.T, e.Attempt)
				delete(reqOpen, e.TraceID)
			}
		case queueing.SpanRetransmit:
			addI(chromeRetransmit, 0, e)
		case queueing.SpanAbandon:
			delete(reqOpen, e.TraceID)
			addI(chromeAbandoned, 0, e)
		}
	}
	slices.SortFunc(recs, func(a, b refChromeRecord) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.order, b.order)
	})

	procNames := []string{"client"}
	for i, name := range tierNames {
		procNames = append(procNames, "tier"+strconv.Itoa(i)+":"+name)
	}
	x, err := trace.Create(path, jsonBuffer)
	if err != nil {
		return err
	}
	x.Put(append(x.Line(), "{\"traceEvents\":[\n"...))
	for i := range recs {
		b := refAppendChromeRecord(x.Line(), &recs[i], procNames)
		if i < len(recs)-1 {
			b = append(b, ',')
		}
		x.Put(append(b, '\n'))
	}
	x.Put(append(x.Line(), "],\"displayTimeUnit\":\"ms\"}\n"...))
	return x.Close()
}

func refAppendChromeRecord(b []byte, r *refChromeRecord, procNames []string) []byte {
	pidTID := func(b []byte) []byte {
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(r.pid), 10)
		b = append(b, `,"tid":`...)
		return strconv.AppendUint(b, r.tid, 10)
	}
	b = append(b, `{"name":"`...)
	b = append(b, chromeNames[r.kind]...)
	switch r.kind {
	case chromeMeta:
		b = append(b, `","ph":"M","ts":0,"pid":`...)
		b = strconv.AppendInt(b, int64(r.pid), 10)
		b = append(b, `,"tid":0,"args":{"name":`...)
		b = appendString(b, procNames[r.pid])
		return append(b, "}}"...)
	case chromeRequest, chromeQueue, chromeService:
		b = append(b, `","ph":"X","ts":`...)
		b = appendUsec(b, r.ts)
		b = append(b, `,"dur":`...)
		b = appendUsec(b, r.dur)
		b = pidTID(b)
		b = append(b, `,"args":{"attempt":`...)
		b = strconv.AppendInt(b, int64(r.att), 10)
		return append(b, "}}"...)
	}
	b = append(b, `","ph":"i","ts":`...)
	b = appendUsec(b, r.ts)
	b = pidTID(b)
	b = append(b, `,"s":"t"`...)
	if r.kind == chromeRetransmit {
		b = append(b, `,"args":{"attempt":`...)
		b = strconv.AppendInt(b, int64(r.att), 10)
		b = append(b, `,"fire_at_ms":`...)
		b = appendMsec(b, r.dur)
		b = append(b, '}')
	}
	return append(b, '}')
}

// refTierSpan is one finished queue or service span at a tier.
type refTierSpan struct {
	start, end int64 // unix nanos
	trace      uint64
	order      int // emission order: the final sort key, keeping the sort stable
	attempt    uint16
	role       uint8
}

// refWriteOTLP is the sort-based OTLP exporter: each tier's spans sorted
// by (start, traceId, role, emission order). Root spans and their events
// are built as the production exporter builds them.
func refWriteOTLP(path string, spec OTLPSpec, tierNames []string, events []SpanEvent) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	nanos := func(t time.Duration) int64 { return spec.EpochNanos + t.Nanoseconds() }

	var traces []uint64
	roots := map[uint64]*otlpTrace{}
	var rootEvents []otlpRootEvent
	state := func(e *SpanEvent) *otlpTrace {
		st := roots[e.TraceID]
		if st == nil {
			st = &otlpTrace{start: e.T, firstEv: -1, lastEv: -1}
			roots[e.TraceID] = st
			traces = append(traces, e.TraceID)
		}
		st.lastT = e.T
		return st
	}
	rootEvent := func(e *SpanEvent) *otlpTrace {
		st := state(e)
		n := int32(len(rootEvents))
		rootEvents = append(rootEvents, otlpRootEvent{t: e.T, aux: e.Aux, next: -1, kind: e.Kind, tier: e.Tier, attempt: e.Attempt})
		if st.lastEv < 0 {
			st.firstEv = n
		} else {
			rootEvents[st.lastEv].next = n
		}
		st.lastEv = n
		return st
	}
	tierSpans := make([][]refTierSpan, len(tierNames))
	addTierSpan := func(role uint8, e *SpanEvent, start time.Duration) {
		tier := int(e.Tier)
		if tier < 0 || tier >= len(tierNames) {
			return
		}
		tierSpans[tier] = append(tierSpans[tier], refTierSpan{
			start: nanos(start), end: nanos(e.T), trace: e.TraceID,
			order: len(tierSpans[tier]), attempt: e.Attempt, role: role,
		})
	}

	open := newRefTierOpen()
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case queueing.SpanSubmit:
			if st := state(e); e.Attempt == 0 {
				st.start = e.T
			}
		case queueing.SpanTierRequest:
			state(e)
			open.advance(e)
		case queueing.SpanServiceStart:
			state(e)
			if q, ok := open.advance(e); ok {
				addTierSpan(otlpRoleQueue, e, q.t)
			}
		case queueing.SpanServiceEnd:
			state(e)
			if svc, ok := open.advance(e); ok {
				addTierSpan(otlpRoleService, e, svc.t)
			}
		case queueing.SpanServicePreempt:
			rootEvent(e)
		case queueing.SpanDrop:
			open.advance(e)
			rootEvent(e).drops++
		case queueing.SpanComplete:
			st := state(e)
			st.end = e.T
			st.ended = true
		case queueing.SpanRetransmit:
			rootEvent(e)
		case queueing.SpanAbandon:
			st := rootEvent(e)
			st.end = e.T
			st.ended = true
			st.abandoned = true
		}
	}
	for _, s := range tierSpans {
		slices.SortFunc(s, func(a, b refTierSpan) int {
			if c := cmp.Compare(a.start, b.start); c != 0 {
				return c
			}
			if c := cmp.Compare(a.trace, b.trace); c != 0 {
				return c
			}
			if c := cmp.Compare(a.role, b.role); c != 0 {
				return c
			}
			return cmp.Compare(a.order, b.order)
		})
	}

	x, err := trace.Create(path, jsonBuffer)
	if err != nil {
		return err
	}
	x.Put(append(x.Line(), "{\"resourceSpans\":[\n"...))
	putResourceHeader(x, spec.ServicePrefix+"-client", -1)
	for i, id := range traces {
		b := appendOTLPRoot(x.Line(), id, roots[id], rootEvents, nanos)
		if i < len(traces)-1 {
			b = append(b, ',')
		}
		x.Put(append(b, '\n'))
	}
	putResourceFooter(x, len(tierNames) == 0)
	for tier, name := range tierNames {
		putResourceHeader(x, spec.ServicePrefix+"-"+name, tier)
		spans := tierSpans[tier]
		for i := range spans {
			b := refAppendOTLPTierSpan(x.Line(), &spans[i], tier, name)
			if i < len(spans)-1 {
				b = append(b, ',')
			}
			x.Put(append(b, '\n'))
		}
		putResourceFooter(x, tier == len(tierNames)-1)
	}
	x.Put(append(x.Line(), "]}\n"...))
	return x.Close()
}

func refAppendOTLPTierSpan(b []byte, sp *refTierSpan, tier int, tierName string) []byte {
	attempt := int(sp.attempt)
	kind, name := otlpKindServer, tierName+"/service"
	if sp.role == otlpRoleQueue {
		kind, name = otlpKindInternal, tierName+"/queue"
	}
	b = appendSpanIDs(b, sp.trace, otlpSpanID(sp.trace, int(sp.role), tier, attempt))
	b = append(b, `,"parentSpanId":"`...)
	b = appendHex16(b, otlpSpanID(sp.trace, otlpRoleRoot, -1, 0))
	b = append(b, `","name":`...)
	b = appendString(b, name)
	b = append(b, `,"kind":`...)
	b = strconv.AppendInt(b, int64(kind), 10)
	b = appendSpanTimes(b, sp.start, sp.end)
	b = append(b, `,"attributes":[`...)
	b = appendIntAttr(b, "memca.tier", int64(tier))
	b = append(b, ',')
	b = appendIntAttr(b, "memca.attempt", int64(attempt))
	return append(b, "]}"...)
}

// canonicalEvents returns a copy of events stably sorted by (T, Seq) and
// renumbered Seq = index, so no two events tie in that order.
func canonicalEvents(events []SpanEvent) []SpanEvent {
	out := slices.Clone(events)
	slices.SortStableFunc(out, func(a, b SpanEvent) int {
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}
