package telemetry

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/queueing"
	"memca/internal/trace"
)

// The OTLP exporter emits the standard OTLP/JSON trace encoding (the
// protobuf JSON mapping of opentelemetry.proto.trace.v1) without any
// OpenTelemetry dependency, so simulated and live runs alike can be loaded
// into Jaeger, Tempo, or any other OTLP-speaking backend. Each tier is a
// resource (service.name = "<prefix>-<tier>"); the client is its own
// resource. Per trace, the client-side request span is the root, and every
// tier visit contributes queue and service child spans linked to it, with
// drops, retransmission scheduling, capacity preemptions, and abandonment
// recorded as span events on the root.
//
// Each span line is what encoding/json makes of the Span message
// {traceId, spanId, parentSpanId, name, kind, startTimeUnixNano,
// endTimeUnixNano, attributes, events, status} with omitempty on
// parentSpanId, attributes, events and status: per the protobuf JSON
// mapping, fixed64 timestamps and int64 attribute values are decimal
// strings, enums are numbers, and IDs are fixed-width lowercase hex.

// DefaultOTLPEpochNanos anchors virtual time zero at a fixed absolute
// instant (2020-01-01T00:00:00Z) so simulated exports are byte-identical
// across runs yet still load into wall-clock tooling.
const DefaultOTLPEpochNanos int64 = 1577836800000000000

// OTLPSpec parameterizes the OTLP export.
type OTLPSpec struct {
	// ServicePrefix prefixes each resource's service.name: the client
	// resource is "<prefix>-client" and tier i is "<prefix>-<tierName>".
	ServicePrefix string
	// EpochNanos is the absolute unix-nano timestamp of event time zero.
	// Simulated runs should keep the fixed default so same-seed exports
	// stay byte-identical; live runs pass their collector's base time.
	EpochNanos int64
}

// DefaultOTLPSpec returns the deterministic simulation-export settings.
func DefaultOTLPSpec() OTLPSpec {
	return OTLPSpec{ServicePrefix: "memca", EpochNanos: DefaultOTLPEpochNanos}
}

// Validate reports the first spec error, or nil.
func (s OTLPSpec) Validate() error {
	if s.ServicePrefix == "" {
		return fmt.Errorf("telemetry: OTLP service prefix must not be empty")
	}
	if s.EpochNanos < 0 {
		return fmt.Errorf("telemetry: OTLP epoch must be >= 0, got %d", s.EpochNanos)
	}
	return nil
}

// OTLP span kind and status code enum values (trace.v1).
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	otlpKindClient   = 3

	otlpStatusOK    = 1
	otlpStatusError = 2
)

// Span-ID derivation: a splitmix64 finalizer over (traceID, role, tier,
// attempt) yields IDs that are deterministic, order-independent, and
// resolvable for parent links even when the root's submit event was lost
// to the ring.
const (
	otlpRoleRoot    = 0
	otlpRoleQueue   = 1
	otlpRoleService = 2
)

func otlpSpanID(traceID uint64, role, tier, attempt int) uint64 {
	x := mix64(traceID*0x9e3779b97f4a7c15 + uint64(role)<<32 + uint64(tier+1)<<16 + uint64(attempt))
	if x == 0 {
		x = 1 // OTLP forbids the all-zero span ID
	}
	return x
}

// otlpTrace accumulates one trace's root-span bookkeeping during the
// event walk.
type otlpTrace struct {
	start     time.Duration
	end       time.Duration
	lastT     time.Duration
	ended     bool
	abandoned bool
	drops     int
	// firstEv and lastEv chain the trace's root-span events through
	// otlpRootEvent.next; -1 when it has none.
	firstEv, lastEv int32
}

// otlpRootEvent is one span event on a root span: a drop, a scheduled
// retransmission, a capacity preemption, or the abandonment.
type otlpRootEvent struct {
	t       time.Duration
	aux     time.Duration
	next    int32
	kind    queueing.SpanKind
	tier    int8
	attempt uint16
}

// otlpTierSpan is one queue or service span at a tier, in the slot its
// opening event reserved: that event's index (which gives the start time
// and trace ID), and once the closing event fills the slot, the span's
// end in unix nanos, the closing event's attempt and the span's role. A
// slot whose span never closed keeps role otlpRoleRoot.
type otlpTierSpan struct {
	end     int64
	ev      int32
	attempt uint16
	role    uint8
}

// WriteOTLP reconstructs spans from a span-event sequence (the shared
// vocabulary of the simulator's Observer and the live collector) and
// writes them as OTLP/JSON. Spans whose start was lost to ring overwrite
// are skipped, mirroring WriteChromeTrace. Root spans come in trace
// first-appearance order and each tier's spans in (start, traceId, name)
// order. The events may come in any order; in (T, Seq) order, as the
// tracer's ring and the live collector hold them, each tier's spans are
// already in start order and the ordering pass is linear.
func WriteOTLP(path string, spec OTLPSpec, tierNames []string, events []SpanEvent) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	nanos := func(t time.Duration) int64 { return spec.EpochNanos + t.Nanoseconds() }

	// Root-span state per trace in first-appearance order, and the open
	// queue and service spans per (trace, tier).
	var traces denseMap[otlpTrace]
	var open openTable
	var rootEvents []otlpRootEvent
	state := func(e *SpanEvent) (int32, *otlpTrace) {
		i, st, added := traces.at(e.TraceID)
		if added {
			*st = otlpTrace{start: e.T, firstEv: -1, lastEv: -1}
		}
		st.lastT = e.T
		return i, st
	}
	keyOf := func(e *SpanEvent) uint64 {
		trace, _ := state(e)
		return tierKey(trace, e.Tier)
	}
	rootEvent := func(e *SpanEvent) *otlpTrace {
		_, st := state(e)
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

	// tierSpans[i] holds tier i's queue and service spans; the client
	// resource holds only root spans, assembled after the walk. Every
	// queue span opens at a tier request and every service span at a
	// service start, and each such event at a tier in range reserves the
	// next slot of its tier's list, so counting them sizes each list up
	// front, all out of one slab.
	counts := make([]int, len(tierNames))
	total := 0
	for i := range events {
		e := &events[i]
		if tier := int(e.Tier); tier >= 0 && tier < len(tierNames) &&
			(e.Kind == queueing.SpanTierRequest || e.Kind == queueing.SpanServiceStart) {
			counts[tier]++
			total++
		}
	}
	tierSpans := make([][]otlpTierSpan, len(tierNames))
	slab := make([]otlpTierSpan, total)
	for i, n := range counts {
		tierSpans[i], slab = slab[:0:n], slab[n:]
	}
	// A slot's openSpan is 1 + its index in its tier's list; the tier is
	// part of the open-span key, so the closing event names the list.
	reserve := func(i int, e *SpanEvent) openSpan {
		tier := int(e.Tier)
		if tier < 0 || tier >= len(tierNames) {
			return 0
		}
		tierSpans[tier] = append(tierSpans[tier], otlpTierSpan{ev: int32(i)})
		return openSpan(len(tierSpans[tier]))
	}
	closeSpan := func(s openSpan, role uint8, e *SpanEvent) {
		if s != 0 {
			sp := &tierSpans[e.Tier][s-1]
			sp.end, sp.attempt, sp.role = nanos(e.T), e.Attempt, role
		}
	}

	for i := range events {
		e := &events[i]
		switch e.Kind {
		case queueing.SpanSubmit:
			if _, st := state(e); e.Attempt == 0 {
				st.start = e.T
			}
		case queueing.SpanTierRequest:
			open.advance(keyOf(e), e.Kind, reserve(i, e))
		case queueing.SpanServiceStart:
			closeSpan(open.advance(keyOf(e), e.Kind, reserve(i, e)), otlpRoleQueue, e)
		case queueing.SpanServiceEnd:
			closeSpan(open.advance(keyOf(e), e.Kind, 0), otlpRoleService, e)
		case queueing.SpanServicePreempt:
			rootEvent(e)
		case queueing.SpanDrop:
			open.advance(keyOf(e), e.Kind, 0)
			rootEvent(e).drops++
		case queueing.SpanComplete:
			_, st := state(e)
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

	// One insertion pass per tier drops the slots that never closed and
	// puts the rest in deterministic (start, traceId, name) order: the
	// fixed-width hex trace IDs order as the numbers do, and "queue" sorts
	// before "service" as the roles do. Reservation order is start order
	// for (T, Seq)-ordered events, so the pass moves only spans that tie
	// on start. Two spans equal on all three keys belong to one (trace,
	// tier) and role, so they never overlap and keep their closing order.
	for tier, spans := range tierSpans {
		s := spans[:0]
		for _, sp := range spans {
			if sp.role == otlpRoleRoot {
				continue
			}
			k := len(s)
			s = append(s, sp)
			for ; k > 0 && otlpTierSpanLess(events, nanos, &sp, &s[k-1]); k-- {
				s[k] = s[k-1]
			}
			s[k] = sp
		}
		tierSpans[tier] = s
	}

	x, err := trace.Create(path, jsonBuffer)
	if err != nil {
		return err
	}
	// One span per line keeps the file diffable and the goldens readable.
	x.Put(append(x.Line(), "{\"resourceSpans\":[\n"...))

	// Root spans, in first-appearance order. Traces still open at export
	// (the post-run drain) end at their last observed event with an unset
	// status, so no child span is ever left without its parent.
	putResourceHeader(x, spec.ServicePrefix+"-client", -1)
	for i := range traces.vals {
		b := appendOTLPRoot(x.Line(), traces.keys[i], &traces.vals[i], rootEvents, nanos)
		if i < len(traces.vals)-1 {
			b = append(b, ',')
		}
		x.Put(append(b, '\n'))
	}
	putResourceFooter(x, len(tierNames) == 0)

	for tier, name := range tierNames {
		spanNames := [...][]byte{
			otlpRoleQueue:   appendString(nil, name+"/queue"),
			otlpRoleService: appendString(nil, name+"/service"),
		}
		putResourceHeader(x, spec.ServicePrefix+"-"+name, tier)
		spans := tierSpans[tier]
		for i := range spans {
			sp := &spans[i]
			e := &events[sp.ev]
			b := appendOTLPTierSpan(x.Line(), e.TraceID, nanos(e.T), sp, tier, spanNames[sp.role])
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

// putResourceHeader opens one resource's span list: service.name, plus
// memca.tier for a tier resource (tier >= 0).
func putResourceHeader(x *trace.Artifact, service string, tier int) {
	b := append(x.Line(), `{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":`...)
	b = appendString(b, service)
	b = append(b, "}}"...)
	if tier >= 0 {
		b = append(b, ',')
		b = appendIntAttr(b, "memca.tier", int64(tier))
	}
	x.Put(append(b, "]},\"scopeSpans\":[{\"scope\":{\"name\":\"memca/telemetry\"},\"spans\":[\n"...))
}

func putResourceFooter(x *trace.Artifact, last bool) {
	b := append(x.Line(), "]}]}"...)
	if !last {
		b = append(b, ',')
	}
	x.Put(append(b, '\n'))
}

// appendSpanIDs appends the traceId and spanId members that open every
// span object.
func appendSpanIDs(b []byte, trace, span uint64) []byte {
	b = append(b, `{"traceId":"0000000000000000`...)
	b = appendHex16(b, trace)
	b = append(b, `","spanId":"`...)
	b = appendHex16(b, span)
	return append(b, '"')
}

// appendSpanTimes appends the start and end members of a span.
func appendSpanTimes(b []byte, start, end int64) []byte {
	b = append(b, `,"startTimeUnixNano":`...)
	b = appendQuotedInt(b, start)
	b = append(b, `,"endTimeUnixNano":`...)
	return appendQuotedInt(b, end)
}

// appendOTLPRoot appends one trace's client-side root span with its span
// events and outcome status.
func appendOTLPRoot(b []byte, id uint64, st *otlpTrace, events []otlpRootEvent, nanos func(time.Duration) int64) []byte {
	end := st.end
	if !st.ended {
		end = st.lastT
	}
	b = appendSpanIDs(b, id, otlpSpanID(id, otlpRoleRoot, -1, 0))
	b = append(b, `,"name":"request","kind":`...)
	b = strconv.AppendInt(b, otlpKindClient, 10)
	b = appendSpanTimes(b, nanos(st.start), nanos(end))
	b = append(b, `,"attributes":[`...)
	b = appendIntAttr(b, "memca.drops", int64(st.drops))
	b = append(b, ']')
	if st.firstEv >= 0 {
		b = append(b, `,"events":[`...)
		for i := st.firstEv; i >= 0; i = events[i].next {
			if i != st.firstEv {
				b = append(b, ',')
			}
			b = appendOTLPRootEvent(b, &events[i], nanos)
		}
		b = append(b, ']')
	}
	switch {
	case st.abandoned:
		b = append(b, `,"status":{"message":"abandoned","code":`...)
		b = strconv.AppendInt(b, otlpStatusError, 10)
		b = append(b, '}')
	case st.ended:
		b = append(b, `,"status":{"code":`...)
		b = strconv.AppendInt(b, otlpStatusOK, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendOTLPRootEvent appends one root-span event with its attributes.
func appendOTLPRootEvent(b []byte, ev *otlpRootEvent, nanos func(time.Duration) int64) []byte {
	b = append(b, `{"timeUnixNano":`...)
	b = appendQuotedInt(b, nanos(ev.t))
	switch ev.kind {
	case queueing.SpanServicePreempt:
		b = append(b, `,"name":"capacity-preempt","attributes":[`...)
		b = appendIntAttr(b, "memca.tier", int64(ev.tier))
	case queueing.SpanDrop:
		b = append(b, `,"name":"drop","attributes":[`...)
		b = appendIntAttr(b, "memca.tier", int64(ev.tier))
		b = append(b, ',')
		b = appendIntAttr(b, "memca.attempt", int64(ev.attempt))
	case queueing.SpanRetransmit:
		b = append(b, `,"name":"retransmit-scheduled","attributes":[`...)
		b = appendIntAttr(b, "memca.attempt", int64(ev.attempt))
		b = append(b, `,{"key":"memca.fire_at_ms","value":{"doubleValue":`...)
		b = appendMsec(b, ev.aux)
		b = append(b, "}}"...)
	default: // queueing.SpanAbandon carries no attributes
		return append(b, `,"name":"abandoned"}`...)
	}
	return append(b, "]}"...)
}

// otlpTierSpanLess orders one tier's closed spans by (start, traceId,
// role).
func otlpTierSpanLess(events []SpanEvent, nanos func(time.Duration) int64, a, b *otlpTierSpan) bool {
	ea, eb := &events[a.ev], &events[b.ev]
	if sa, sb := nanos(ea.T), nanos(eb.T); sa != sb {
		return sa < sb
	}
	if ea.TraceID != eb.TraceID {
		return ea.TraceID < eb.TraceID
	}
	return a.role < b.role
}

// appendOTLPTierSpan appends one tier span of trace, starting at start
// (unix nanos) and linked to the trace's root. name is the span's
// pre-quoted "<tier>/<queue|service>" name.
func appendOTLPTierSpan(b []byte, trace uint64, start int64, sp *otlpTierSpan, tier int, name []byte) []byte {
	attempt := int(sp.attempt)
	kind := otlpKindServer
	if sp.role == otlpRoleQueue {
		kind = otlpKindInternal
	}
	b = appendSpanIDs(b, trace, otlpSpanID(trace, int(sp.role), tier, attempt))
	b = append(b, `,"parentSpanId":"`...)
	b = appendHex16(b, otlpSpanID(trace, otlpRoleRoot, -1, 0))
	b = append(b, `","name":`...)
	b = append(b, name...)
	b = append(b, `,"kind":`...)
	b = strconv.AppendInt(b, int64(kind), 10)
	b = appendSpanTimes(b, start, sp.end)
	b = append(b, `,"attributes":[`...)
	b = appendIntAttr(b, "memca.tier", int64(tier))
	b = append(b, ',')
	b = appendIntAttr(b, "memca.attempt", int64(attempt))
	return append(b, "]}"...)
}

// WriteOTLP exports the tracer's event ring as OTLP/JSON. Like
// WriteChromeTrace it reads the ring in place and must not run while the
// tracer records.
func (t *Tracer) WriteOTLP(path string, spec OTLPSpec) error {
	return WriteOTLP(path, spec, t.TierNames(), t.orderedEvents())
}
