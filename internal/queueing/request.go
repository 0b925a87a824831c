package queueing

import "time"

// Request is one client request traveling through the tier chain. Fields
// are written by the network; callers read them from callbacks.
//
// Requests are pooled: once the completion callback or the Client's drop
// handling returns, the network recycles the object for a later
// submission. Callbacks must copy out any fields they need later and must
// not retain the pointer. The value returned by Submit is likewise only
// valid until the next Submit on the same network.
type Request struct {
	// ID is unique per network, in submission order.
	ID uint64
	// TraceID links the attempts of one logical client request into a
	// single causal trace: Submit assigns a fresh ID to a first attempt,
	// and a Client's retransmission carries the dropped attempt's ID, so
	// per-request telemetry can attribute the full retransmission wait to
	// one trace.
	TraceID uint64
	// TraceSlot is scratch storage reserved for the network's Observer
	// (see Config.Observer): an index into the observer's own per-trace
	// state, claimed at SpanSubmit and read back on later events without
	// any map lookup. The network resets it to -1 for a first attempt and
	// a Client's retransmission restores the dropped attempt's slot; the
	// network never interprets it, and other callers must not touch it.
	TraceSlot int32
	// Class indexes Config.Classes.
	Class int
	// FirstAttempt is when the client first sent the request, across
	// retransmissions; client response time is measured from it.
	FirstAttempt time.Duration
	// Submit is when this attempt entered the network.
	Submit time.Duration
	// Attempt counts retransmissions (0 = first attempt).
	Attempt int
	// Done is when the response reached the client (zero until then).
	Done time.Duration
	// Dropped reports that this attempt was rejected by the full front
	// tier.
	Dropped bool
	// TierArrive[i] is when the request was admitted into tier i. Time
	// spent blocked in front of a full tier i is charged to the upstream
	// tiers (where the request physically waits, holding their threads),
	// mirroring how per-tier latency is measured in real deployments.
	TierArrive []time.Duration
	// TierLeave[i] is when the response left tier i on the way back.
	TierLeave []time.Duration
	// UserData carries caller context (e.g. the emulated client).
	UserData any

	onComplete func(*Request)
	client     *Client
}

// reset clears the request for reuse, keeping the TierArrive/TierLeave
// backing arrays so steady-state submissions allocate nothing. The tier
// slices are resized to depth+1 and zeroed (a recycled request must never
// leak a prior run's timestamps into latency stats).
func (r *Request) reset(depth int) {
	r.ID = 0
	r.TraceID = 0
	r.TraceSlot = -1
	r.Class = 0
	r.FirstAttempt = 0
	r.Submit = 0
	r.Attempt = 0
	r.Done = 0
	r.Dropped = false
	r.TierArrive = resetDurations(r.TierArrive, depth+1)
	r.TierLeave = resetDurations(r.TierLeave, depth+1)
	r.UserData = nil
	r.onComplete = nil
	r.client = nil
}

// resetDurations returns s resized to n with every element zeroed, reusing
// the backing array when it is large enough.
func resetDurations(s []time.Duration, n int) []time.Duration {
	if cap(s) < n {
		return make([]time.Duration, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ClientRT returns the response time the end user perceives: completion
// minus first attempt, spanning retransmissions.
func (r *Request) ClientRT() time.Duration { return r.Done - r.FirstAttempt }

// TierRT returns the response time observed at tier i: from the moment the
// request was handed to the tier until its response left it. It returns 0
// for tiers the request never reached.
func (r *Request) TierRT(i int) time.Duration {
	if i < 0 || i >= len(r.TierArrive) || r.TierLeave[i] == 0 {
		return 0
	}
	return r.TierLeave[i] - r.TierArrive[i]
}
