package telemetry

import "time"

// Attribution decomposes one trace's client response time along its
// critical path: per-tier queueing (blocked in front of a full tier plus
// waiting for a station), per-tier service (wall time, including fluid
// slowdown during a capacity burst), retransmission wait (drop to
// resubmit), and a residual for everything else (network hop delay).
// When the network has no hop delay, Queue + Service + RetransWait sums
// exactly to RT.
type Attribution struct {
	// TraceID identifies the logical client request.
	TraceID uint64
	// Class is the request-class index.
	Class int
	// Start is the virtual time of the first attempt's submit.
	Start time.Duration
	// End is when the trace closed (response delivered, or abandoned).
	End time.Duration
	// RT is the client response time: End - Start.
	RT time.Duration
	// Attempts counts submits, including retransmissions.
	Attempts int
	// Drops counts rejected attempts.
	Drops int
	// Abandoned reports the client gave up (retries exhausted).
	Abandoned bool
	// Queue[i] is the total time queued at tier i across attempts.
	Queue []time.Duration
	// Service[i] is the total wall time in service at tier i.
	Service []time.Duration
	// RetransWait is the total time between a drop and its resubmission
	// (the RFC 6298 RTO waits that dominate the attacked tail).
	RetransWait time.Duration
	// Other is the residual: RT minus all attributed components.
	Other time.Duration
}

// TotalQueue sums the per-tier queueing components.
func (a *Attribution) TotalQueue() time.Duration {
	var s time.Duration
	for _, q := range a.Queue {
		s += q
	}
	return s
}

// Breakdown is a normalized view over a set of attributions: total time
// per component and the share of the summed response time each claims.
type Breakdown struct {
	// Count is the number of records summarized.
	Count int
	// RT is the summed response time.
	RT time.Duration
	// Queue[i] / Service[i] are the summed per-tier components.
	Queue   []time.Duration
	Service []time.Duration
	// RetransWait and Other are the summed client-side components.
	RetransWait time.Duration
	Other       time.Duration
}

// Summarize folds a set of attribution records into a Breakdown.
func Summarize(tiers int, recs []Attribution) Breakdown {
	b := Breakdown{
		Queue:   make([]time.Duration, tiers),
		Service: make([]time.Duration, tiers),
	}
	for i := range recs {
		r := &recs[i]
		b.Count++
		b.RT += r.RT
		b.RetransWait += r.RetransWait
		b.Other += r.Other
		for j := 0; j < tiers && j < len(r.Queue); j++ {
			b.Queue[j] += r.Queue[j]
			b.Service[j] += r.Service[j]
		}
	}
	return b
}

// TotalQueue sums the per-tier queueing components.
func (b *Breakdown) TotalQueue() time.Duration {
	var s time.Duration
	for _, q := range b.Queue {
		s += q
	}
	return s
}

// TotalService sums the per-tier service components.
func (b *Breakdown) TotalService() time.Duration {
	var s time.Duration
	for _, v := range b.Service {
		s += v
	}
	return s
}

// ServiceShare is the fraction of summed response time spent in service —
// the only component a per-tier latency monitor attributes to "work".
func (b *Breakdown) ServiceShare() float64 {
	if b.RT <= 0 {
		return 0
	}
	return float64(b.TotalService()) / float64(b.RT)
}

// WaitShare is the fraction of summed response time spent waiting:
// queueing plus retransmission wait. Under a MemCA attack this share
// dominates the tail even while every tier's service time looks healthy.
func (b *Breakdown) WaitShare() float64 {
	if b.RT <= 0 {
		return 0
	}
	return float64(b.TotalQueue()+b.RetransWait) / float64(b.RT)
}
