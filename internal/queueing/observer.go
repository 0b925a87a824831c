package queueing

import "fmt"

// SpanKind enumerates the request lifecycle points a Network reports to
// its Observer. Together the kinds reconstruct the full causal path of a
// request: client arrival, per-tier queue-enter/exit, service
// start/preempt/end, the response walk, front-tier drops, the client's
// retransmission or abandonment of a dropped request, and final delivery.
type SpanKind uint8

// Span kinds, in rough lifecycle order.
const (
	// SpanSubmit fires when an attempt enters the network (tier = -1).
	// Request.TraceID and Request.Attempt are set; an Observer that
	// tracks per-trace state should claim Request.TraceSlot here.
	SpanSubmit SpanKind = iota
	// SpanTierRequest fires when the request asks tier `tier` for a
	// concurrency slot (before any admission decision).
	SpanTierRequest
	// SpanTierBlocked fires when a full interior tier blocks the request
	// in front of it (RPC back-pressure; queue-enter).
	SpanTierBlocked
	// SpanTierAdmit fires when the tier admits the request (queue-exit
	// from the blocked state, TierArrive stamped).
	SpanTierAdmit
	// SpanStationWait fires when the admitted request must wait for a
	// free service station (queue-enter on the station queue).
	SpanStationWait
	// SpanServiceStart fires when a station begins serving the request
	// (queue-exit; the span between SpanTierRequest and here is the
	// tier's total queueing delay for this attempt).
	SpanServiceStart
	// SpanServicePreempt fires for every in-flight service when the
	// tier's capacity changes mid-service (the fluid-model reconcile
	// that implements millibottleneck bursts and elastic scaling).
	SpanServicePreempt
	// SpanServiceEnd fires when the station finishes the request's work
	// at this tier.
	SpanServiceEnd
	// SpanTierRespond fires when the response leaves the tier on its way
	// back to the client.
	SpanTierRespond
	// SpanDrop fires when the tier sheds the request (front tier, or an
	// interior tier in tandem mode). The logical trace stays open: the
	// client may retransmit the same TraceID.
	SpanDrop
	// SpanComplete fires when the response reaches the client
	// (tier = -1), before the completion callbacks run.
	SpanComplete
	// SpanRetransmit fires when a Client schedules the retransmission of
	// a dropped attempt (tier = -1). The request is the dropped attempt
	// with Attempt already advanced to the retransmission and Submit set
	// to the time it will be sent.
	SpanRetransmit
	// SpanAbandon fires when a Client gives up on a request (tier = -1):
	// its retries are spent, or its retransmission came due after the
	// client stopped. The trace ends here.
	SpanAbandon
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case SpanSubmit:
		return "submit"
	case SpanTierRequest:
		return "tier-request"
	case SpanTierBlocked:
		return "tier-blocked"
	case SpanTierAdmit:
		return "tier-admit"
	case SpanStationWait:
		return "station-wait"
	case SpanServiceStart:
		return "service-start"
	case SpanServicePreempt:
		return "service-preempt"
	case SpanServiceEnd:
		return "service-end"
	case SpanTierRespond:
		return "tier-respond"
	case SpanDrop:
		return "drop"
	case SpanComplete:
		return "complete"
	case SpanRetransmit:
		return "retransmit-scheduled"
	case SpanAbandon:
		return "abandoned"
	default:
		return fmt.Sprintf("SpanKind(%d)", uint8(k))
	}
}

// Observer receives every request lifecycle event of a Network through a
// single narrow hook. It runs synchronously on the simulator goroutine at
// the exact virtual time of the event (read it from the engine), so an
// implementation must not mutate the network and must not retain req
// beyond the call — the object is recycled once its trace completes.
//
// The hook is designed for zero-overhead instrumentation: the network
// performs one nil check per lifecycle point when no observer is set, and
// the call itself passes only pointer- and integer-shaped values, so a
// careful implementation (see internal/telemetry) keeps the steady-state
// request path allocation-free with observation enabled.
type Observer interface {
	// Observe handles one lifecycle event. tier is the tier index, or -1
	// for the client-side SpanSubmit, SpanComplete, SpanRetransmit and
	// SpanAbandon events.
	Observe(req *Request, kind SpanKind, tier int)
}
