package telemetry

import (
	"cmp"
	"slices"
	"time"

	"memca/internal/queueing"
)

// tierStamps accumulates one trace's time at one tier. reqAt/svcAt are the
// open span starts (-1 when no span is open); queue/service are the closed
// totals across attempts.
type tierStamps struct {
	reqAt   time.Duration
	svcAt   time.Duration
	queue   time.Duration
	service time.Duration
}

// traceSlot is the per-trace state of a traceBook.
type traceSlot struct {
	traceID     uint64
	first       time.Duration
	lastDrop    time.Duration
	retransWait time.Duration
	class       int
	attempts    int
	drops       int
	// open and discard are the Tracer's slot bookkeeping: open marks a
	// slot in use, and discard a slot opened before the last Reset, whose
	// timing mixes warmup with measurement, so it is freed without being
	// sampled.
	open    bool
	discard bool
}

// traceBook is the per-trace attribution state machine: the one place
// the span vocabulary's rules for a trace's time live. The simulator's
// Tracer drives it event by event through Request.TraceSlot, and Assemble
// drives it over a recorded span log, so simulated and live runs
// attribute a trace by the same rules. Slots are addressed by index; the
// caller decides when a slot opens and when its trace closes.
type traceBook struct {
	tiers int
	slots []traceSlot
	work  []tierStamps // slot-major: [slot*tiers+tier]
}

// open starts slot si as a fresh trace first seen at now.
func (b *traceBook) open(si int32, traceID uint64, class int, now time.Duration) {
	b.slots[si] = traceSlot{traceID: traceID, first: now, lastDrop: -1, class: class, open: true}
	base := int(si) * b.tiers
	for i := 0; i < b.tiers; i++ {
		b.work[base+i] = tierStamps{reqAt: -1, svcAt: -1}
	}
}

func (b *traceBook) at(si int32, tier int) *tierStamps {
	return &b.work[int(si)*b.tiers+tier]
}

// step applies one span event to slot si's trace. tier is the event's
// tier, or -1 for a client-side event (and for a tier the book does not
// hold); attempt is the observed request's attempt. Kinds that carry no
// attribution rule, and the closing kinds, which the caller handles, are
// ignored.
func (b *traceBook) step(si int32, kind queueing.SpanKind, tier, attempt int, now time.Duration) {
	s := &b.slots[si]
	switch kind {
	case queueing.SpanSubmit:
		s.attempts++
		if attempt == 0 {
			s.first = now
		} else if s.lastDrop >= 0 {
			// Retransmission wait: from the failed attempt's drop to
			// this resubmission.
			s.retransWait += now - s.lastDrop
			s.lastDrop = -1
		}
	case queueing.SpanTierRequest:
		if tier >= 0 {
			b.at(si, tier).reqAt = now
		}
	case queueing.SpanServiceStart:
		if tier >= 0 {
			w := b.at(si, tier)
			if w.reqAt >= 0 {
				w.queue += now - w.reqAt
				w.reqAt = -1
			}
			w.svcAt = now
		}
	case queueing.SpanServiceEnd:
		if tier >= 0 {
			w := b.at(si, tier)
			if w.svcAt >= 0 {
				w.service += now - w.svcAt
				w.svcAt = -1
			}
		}
	case queueing.SpanDrop:
		s.drops++
		s.lastDrop = now
		if tier >= 0 {
			// The refusing tier fired SpanTierRequest at the same
			// instant; clear the dangling queue-enter stamp so it cannot
			// leak into the next attempt's queueing time.
			b.at(si, tier).reqAt = -1
		}
	case queueing.SpanRetransmit:
		if s.lastDrop < 0 {
			// No tier recorded a drop (a live transport error): anchor
			// the wait at the client's failure observation instead. A
			// simulated Client always schedules right after a SpanDrop.
			s.lastDrop = now
		}
	}
}

// totals returns slot si's queueing and service time summed over tiers.
func (b *traceBook) totals(si int32) (queue, service time.Duration) {
	base := int(si) * b.tiers
	for i := 0; i < b.tiers; i++ {
		queue += b.work[base+i].queue
		service += b.work[base+i].service
	}
	return queue, service
}

// fill writes the attribution of slot si's trace, closed at end, into rec,
// reusing rec's Queue/Service arrays (they must already have b.tiers
// entries).
func (b *traceBook) fill(rec *Attribution, si int32, end time.Duration, abandoned bool) {
	s := &b.slots[si]
	rec.TraceID = s.traceID
	rec.Class = s.class
	rec.Start = s.first
	rec.End = end
	rec.RT = end - s.first
	rec.Attempts = s.attempts
	rec.Drops = s.drops
	rec.Abandoned = abandoned
	rec.RetransWait = s.retransWait
	base := int(si) * b.tiers
	var tq, ts time.Duration
	for i := 0; i < b.tiers; i++ {
		q, sv := b.work[base+i].queue, b.work[base+i].service
		rec.Queue[i] = q
		rec.Service[i] = sv
		tq += q
		ts += sv
	}
	rec.Other = rec.RT - tq - ts - rec.RetransWait
}

// orphans counts slot si's tier spans still open: a tier request without
// its service start or drop, a service start without its service end.
func (b *traceBook) orphans(si int32) int {
	n := 0
	base := int(si) * b.tiers
	for i := 0; i < b.tiers; i++ {
		if w := &b.work[base+i]; w.reqAt >= 0 || w.svcAt >= 0 {
			n++
		}
	}
	return n
}

// traceEnd is how a trace closed in an assembled log.
type traceEnd struct {
	at        time.Duration
	closed    bool
	abandoned bool
}

// Assemble folds a span log in (T, Seq) order into one attribution per
// closed trace (completed or abandoned; Class is 0, since span events do
// not carry it), ordered by (Start, TraceID), by the rules the Tracer
// applies as a run executes. A trace opens at its first event of any kind
// and starts at its first attempt's submit when the log holds it. It
// closes at its last complete or abandon event, and events recorded after
// that still count toward it: a live tier may stamp its service end after
// the client saw the response. open counts the traces that never closed;
// orphans counts the tier spans left open inside closed traces (non-zero
// means a tier's instrumentation leaked a span). tiers is the tier count;
// events at other tiers count as client-side events.
func Assemble(tiers int, events []SpanEvent) (attrs []Attribution, open, orphans int) {
	b := traceBook{tiers: tiers}
	var ends denseMap[traceEnd]
	for i := range events {
		e := &events[i]
		si, end, added := ends.at(e.TraceID)
		if added {
			b.slots = append(b.slots, traceSlot{})
			b.work = append(b.work, make([]tierStamps, tiers)...)
			b.open(si, e.TraceID, 0, e.T)
		}
		switch e.Kind {
		case queueing.SpanComplete:
			end.at, end.closed = e.T, true
		case queueing.SpanAbandon:
			end.at, end.closed, end.abandoned = e.T, true, true
		default:
			tier := int(e.Tier)
			if tier >= tiers {
				tier = -1
			}
			b.step(si, e.Kind, tier, int(e.Attempt), e.T)
		}
	}
	closed := 0
	for _, end := range ends.vals {
		if end.closed {
			closed++
		}
	}
	attrs = make([]Attribution, 0, closed)
	slab := make([]time.Duration, 2*tiers*closed)
	for i, end := range ends.vals {
		if !end.closed {
			open++
			continue
		}
		si := int32(i)
		orphans += b.orphans(si)
		off := 2 * tiers * len(attrs)
		rec := Attribution{
			Queue:   slab[off : off+tiers : off+tiers],
			Service: slab[off+tiers : off+2*tiers : off+2*tiers],
		}
		b.fill(&rec, si, end.at, end.abandoned)
		attrs = append(attrs, rec)
	}
	slices.SortFunc(attrs, func(x, y Attribution) int {
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		return cmp.Compare(x.TraceID, y.TraceID)
	})
	return attrs, open, orphans
}
