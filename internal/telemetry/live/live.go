// Package live collects wall-clock causal spans from the real-socket
// 3-tier path (internal/victimd, the memcafw probes, the demo load
// generator) using the exact span vocabulary of the simulator's
// queueing.Observer, and assembles them into the internal/telemetry record
// types with telemetry.Assemble, the simulator tracer's own per-trace
// rules — so WriteChromeTrace, WriteOTLP, attribution CSVs, timelines, and
// BlindnessRatio work unchanged whether the events came from virtual or
// wall-clock time.
//
// The Collector mirrors the simulator tracer's discipline translated to a
// concurrent world: storage is pre-sized at construction and the recording
// hot path is lock-free — one atomic fetch-add to claim a slot, a plain
// struct write, and one atomic release store; no locks, no maps, no
// allocations. Unlike the simulator's overwrite-oldest ring (safe there
// because the engine is single-goroutine), concurrent writers must never
// lap each other, so the live event log is claim-once: events beyond the
// capacity are counted as dropped instead of overwriting live slots.
// Assembly (grouping events into per-trace attributions) happens only at
// export time, after the servers quiesce.
package live

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"memca/internal/queueing"
	"memca/internal/telemetry"
)

// Event kinds re-exported so clock-side packages (victimd, memcafw, cmd/)
// record spans in the simulator's lifecycle vocabulary without importing
// the queueing package themselves.
const (
	KindSubmit       = queueing.SpanSubmit
	KindTierRequest  = queueing.SpanTierRequest
	KindServiceStart = queueing.SpanServiceStart
	KindServiceEnd   = queueing.SpanServiceEnd
	KindTierRespond  = queueing.SpanTierRespond
	KindDrop         = queueing.SpanDrop
	KindComplete     = queueing.SpanComplete

	KindRetransmitScheduled = queueing.SpanRetransmit
	KindAbandoned           = queueing.SpanAbandon
)

// ClientTier is the tier index of client-side events (submit, complete,
// retransmission scheduling, abandonment), mirroring the simulator.
const ClientTier = -1

// Config sizes a Collector.
type Config struct {
	// Tiers names the instrumented tiers; a tier's index in this slice is
	// its tier id in every recorded event. Empty is allowed (client-only
	// collectors, e.g. probe tracing).
	Tiers []string
	// Events is the pre-sized event-log capacity. Recording beyond it
	// drops events (counted) rather than overwriting — concurrent writers
	// must never lap each other.
	Events int
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if c.Events <= 0 {
		return fmt.Errorf("live: event capacity must be positive, got %d", c.Events)
	}
	for i, name := range c.Tiers {
		if name == "" {
			return fmt.Errorf("live: tier %d name must not be empty", i)
		}
	}
	return nil
}

// Collector is the shared wall-clock span sink. All methods are safe for
// concurrent use; Events/Report should run after recording quiesces (an
// in-flight Record may still be filling its claimed slot — such slots are
// skipped, not torn).
type Collector struct {
	tierNames []string
	epoch     time.Time

	cursor atomic.Uint64
	ready  []atomic.Uint32
	events []telemetry.SpanEvent

	nextTrace atomic.Uint64
}

// New builds a collector.
func New(cfg Config) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Tiers))
	copy(names, cfg.Tiers)
	return &Collector{
		tierNames: names,
		epoch:     time.Now(),
		ready:     make([]atomic.Uint32, cfg.Events),
		events:    make([]telemetry.SpanEvent, cfg.Events),
	}, nil
}

// TierNames returns the configured tier labels.
func (c *Collector) TierNames() []string { return c.tierNames }

// Epoch returns wall-clock time zero of the collector's timestamps.
func (c *Collector) Epoch() time.Time { return c.epoch }

// Now returns the current event timestamp (wall time since the epoch).
func (c *Collector) Now() time.Duration { return time.Since(c.epoch) }

// NextTraceID mints a fresh trace ID (never zero).
//
//memca:hotpath
func (c *Collector) NextTraceID() uint64 { return c.nextTrace.Add(1) }

// Record stamps the current time and appends one span event. Lock- and
// allocation-free: an atomic slot claim, a struct write, and a release
// store publishing the slot.
//
//memca:hotpath
func (c *Collector) Record(traceID uint64, kind queueing.SpanKind, tier, attempt int, aux time.Duration) {
	c.RecordAt(c.Now(), traceID, kind, tier, attempt, aux)
}

// RecordAt appends one span event with an explicit timestamp (wall time
// since the epoch), for callers that already stamped the instant.
//
//memca:hotpath
func (c *Collector) RecordAt(t time.Duration, traceID uint64, kind queueing.SpanKind, tier, attempt int, aux time.Duration) {
	seq := c.cursor.Add(1) - 1
	if seq >= uint64(len(c.events)) {
		return // capacity exhausted; counted by EventsDropped
	}
	e := &c.events[seq]
	e.T = t
	e.Seq = seq
	e.TraceID = traceID
	e.Aux = aux
	e.Kind = kind
	e.Tier = int8(tier)
	e.Attempt = uint16(attempt)
	c.ready[seq].Store(1)
}

// EventsDropped returns how many events were discarded because the
// pre-sized log filled up.
func (c *Collector) EventsDropped() uint64 {
	n := c.cursor.Load()
	if limit := uint64(len(c.events)); n > limit {
		return n - limit
	}
	return 0
}

// Events returns a snapshot of the recorded span events ordered by
// (T, Seq). Slots claimed by still-in-flight Record calls are skipped.
func (c *Collector) Events() []telemetry.SpanEvent {
	n := c.cursor.Load()
	if limit := uint64(len(c.events)); n > limit {
		n = limit
	}
	out := make([]telemetry.SpanEvent, 0, n)
	for i := uint64(0); i < n; i++ {
		if c.ready[i].Load() == 1 {
			out = append(out, c.events[i])
		}
	}
	// Wall-clock events from concurrent goroutines interleave out of
	// order; sort into the (time, sequence) total order every exporter
	// assumes.
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
