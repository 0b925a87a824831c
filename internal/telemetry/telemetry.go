// Package telemetry reconstructs per-request causal traces from the
// queueing network's Observer hook: where each request spent its time
// (per-tier queueing vs service vs retransmission wait), which requests
// landed in the latency tail, and what the timeline of client latency
// looks like at monitoring resolutions fine enough to see a
// millibottleneck and coarse enough to miss it.
//
// The tracer is built for the simulator's zero-allocation discipline:
// every per-event structure (trace slots, per-tier stamp arrays, the span
// event ring, tail/head sample records) is pre-sized at construction, so
// every recording path — submit, queue, serve, respond, complete, and the
// drop, retransmission and abandonment of a dropped request — performs no
// heap allocations and no map operations: each event finds its trace
// through Request.TraceSlot, which a Client's retransmission carries
// across attempts. Maps are touched only at export time.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/sweep"
)

// Spec holds the user-facing tracer knobs. The zero value is not valid;
// start from DefaultSpec.
type Spec struct {
	// MaxActive bounds the number of concurrently open traces tracked in
	// full detail. Traces opened beyond it are counted as untracked and
	// appear only in the span event ring.
	MaxActive int
	// EventRing is the capacity of the raw span-event ring buffer
	// (overwrite-oldest). Zero disables event recording; attribution and
	// timelines still work.
	EventRing int
	// TailKeep is N for slowest-N sampling: the N completed traces with
	// the largest client response times are kept with full attribution.
	TailKeep int
	// HeadEvery enables a deterministic 1-in-K head sample of all closed
	// traces, seeded from the run seed so repeated runs keep identical
	// traces. Zero disables head sampling.
	HeadEvery int
	// HeadKeep bounds the head-sample reservoir (overwrite-oldest).
	HeadKeep int
	// Resolutions lists the timeline aggregation windows, e.g. 50ms and
	// 1s to contrast fine-grained and coarse monitoring views.
	Resolutions []time.Duration
	// FeatureWindows lists the streaming feature-extraction windows: for
	// each width the tracer maintains a FeatureSeries of per-window
	// detection features (retransmission-wait share, drop rate, queue-vs-
	// service split, tail-over count) booked incrementally as traces
	// close. Empty disables feature extraction.
	FeatureWindows []time.Duration
	// TailOver is the response-time threshold for the per-window TailOver
	// count (the paper's 1 s damage line is the canonical choice); zero
	// disables the count. Only meaningful with FeatureWindows set.
	TailOver time.Duration
}

// DefaultSpec returns tracer settings sized for the paper's experiments:
// room for every concurrent client of the default workload, a 64K event
// ring, 512-deep tail and head samples, and the 50ms-vs-1s dual-resolution
// timelines from the monitoring-blindness analysis.
func DefaultSpec() Spec {
	return Spec{
		MaxActive:   16384,
		EventRing:   1 << 16,
		TailKeep:    512,
		HeadEvery:   64,
		HeadKeep:    512,
		Resolutions: []time.Duration{50 * time.Millisecond, time.Second},
	}
}

// Validate reports the first spec error, or nil.
func (s Spec) Validate() error {
	if s.MaxActive <= 0 {
		return fmt.Errorf("telemetry: MaxActive must be positive, got %d", s.MaxActive)
	}
	if s.EventRing < 0 {
		return fmt.Errorf("telemetry: EventRing must be >= 0, got %d", s.EventRing)
	}
	if s.TailKeep < 0 {
		return fmt.Errorf("telemetry: TailKeep must be >= 0, got %d", s.TailKeep)
	}
	if s.HeadEvery < 0 {
		return fmt.Errorf("telemetry: HeadEvery must be >= 0, got %d", s.HeadEvery)
	}
	if s.HeadEvery > 0 && s.HeadKeep <= 0 {
		return fmt.Errorf("telemetry: HeadKeep must be positive when HeadEvery is set, got %d", s.HeadKeep)
	}
	for i, r := range s.Resolutions {
		if r <= 0 {
			return fmt.Errorf("telemetry: resolution %d must be positive, got %v", i, r)
		}
	}
	for i, w := range s.FeatureWindows {
		if w <= 0 {
			return fmt.Errorf("telemetry: feature window %d must be positive, got %v", i, w)
		}
	}
	if s.TailOver < 0 {
		return fmt.Errorf("telemetry: TailOver must be >= 0, got %v", s.TailOver)
	}
	return nil
}

// Config assembles a Tracer.
type Config struct {
	Spec
	// Tiers is the tier count of the observed network.
	Tiers int
	// TierNames labels tiers in exports; must have Tiers entries when
	// non-nil.
	TierNames []string
	// Seed derives the deterministic head-sampling phase. Use the run's
	// sweep seed so sampling never draws from the engine RNG (which would
	// perturb the simulated system).
	Seed int64
	// Horizon bounds the timelines: they cover [base, base+Horizon] and
	// traces closing beyond that (the post-run drain) are not booked.
	Horizon time.Duration
	// Arena supplies the tracer's per-record duration slab from the run's
	// shared stats arena, so the sim and trace paths draw from one
	// allocator; it is required. The arena must outlive the tracer and
	// must not be Reset while the tracer's attributions are still read.
	Arena *stats.Arena
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Tiers <= 0 {
		return fmt.Errorf("telemetry: Tiers must be positive, got %d", c.Tiers)
	}
	if c.Arena == nil {
		return fmt.Errorf("telemetry: Arena must not be nil")
	}
	if c.TierNames != nil && len(c.TierNames) != c.Tiers {
		return fmt.Errorf("telemetry: got %d tier names for %d tiers", len(c.TierNames), c.Tiers)
	}
	if len(c.Resolutions) > 0 && c.Horizon <= 0 {
		return fmt.Errorf("telemetry: Horizon must be positive when timelines are enabled, got %v", c.Horizon)
	}
	if len(c.FeatureWindows) > 0 && c.Horizon <= 0 {
		return fmt.Errorf("telemetry: Horizon must be positive when feature windows are enabled, got %v", c.Horizon)
	}
	return nil
}

// SpanEvent is one entry of the raw event ring.
type SpanEvent struct {
	// T is the virtual time of the event.
	T time.Duration
	// Seq is the tracer-local sequence number: a total order over events,
	// including ties at the same virtual time.
	Seq uint64
	// TraceID identifies the logical client request.
	TraceID uint64
	// Aux carries kind-specific payload (SpanRetransmit: the scheduled
	// resubmit time).
	Aux time.Duration
	// Kind is the event kind: the queueing network's lifecycle vocabulary,
	// including a client's retransmissions and abandonments.
	Kind queueing.SpanKind
	// Tier is the tier index, or -1 for client-side events.
	Tier int8
	// Attempt is the retransmission attempt of the observed request.
	Attempt uint16
}

// tierStamps accumulates one trace's time at one tier. reqAt/svcAt are the
// open span starts (-1 when no span is open); queue/service are the closed
// totals across attempts.
type tierStamps struct {
	reqAt   time.Duration
	svcAt   time.Duration
	queue   time.Duration
	service time.Duration
}

// traceSlot is the per-open-trace state, pooled in a flat array and
// addressed by Request.TraceSlot.
type traceSlot struct {
	traceID     uint64
	first       time.Duration
	lastDrop    time.Duration
	retransWait time.Duration
	class       int
	attempts    int
	drops       int
	open        bool
	// discard marks a slot opened before the last Reset: its timing mixes
	// warmup with measurement, so it is freed without being sampled.
	discard bool
}

// Tracer implements queueing.Observer to reconstruct per-request causal
// traces. All methods run on the simulator goroutine.
type Tracer struct {
	engine *sim.Engine
	cfg    Config
	tiers  int

	slots     []traceSlot
	tierWork  []tierStamps // slot-major: [slot*tiers+tier]
	freeSlots []int32

	// events is the span-event ring: evNext is the slot the next event
	// is written to, and eventSeq counts the events pushed since the last
	// Reset. Once eventSeq exceeds the ring, the oldest event is at evNext.
	events   []SpanEvent
	evNext   int
	eventSeq uint64

	// tail is a min-heap on (RT, TraceID) of the slowest TailKeep closed
	// traces; backing holds its pre-allocated Queue/Service arrays.
	tail []Attribution
	// head is an overwrite-oldest reservoir of every HeadEvery-th closed
	// trace.
	head      []Attribution
	headNext  int
	headCount uint64
	headPhase uint64
	backing   []time.Duration

	timelines []*Timeline
	features  []*FeatureSeries

	closed    uint64
	untracked uint64
}

// New builds a tracer for a network with cfg.Tiers tiers driven by engine.
// Wire it in via queueing.Config.Observer.
func New(engine *sim.Engine, cfg Config) (*Tracer, error) {
	if engine == nil {
		return nil, fmt.Errorf("telemetry: engine must not be nil")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tracer{
		engine:    engine,
		cfg:       cfg,
		tiers:     cfg.Tiers,
		slots:     make([]traceSlot, cfg.MaxActive),
		tierWork:  make([]tierStamps, cfg.MaxActive*cfg.Tiers),
		freeSlots: make([]int32, 0, cfg.MaxActive),
	}
	for i := cfg.MaxActive - 1; i >= 0; i-- {
		t.freeSlots = append(t.freeSlots, int32(i))
	}
	if cfg.EventRing > 0 {
		t.events = make([]SpanEvent, cfg.EventRing)
	}
	// Pre-allocate every sample record's per-tier arrays out of one
	// backing slab so tail replacement and head overwrite never allocate.
	nRecs := cfg.TailKeep + cfg.HeadKeep
	t.backing = cfg.Arena.DurationSlab(nRecs * 2 * cfg.Tiers)
	t.tail = make([]Attribution, 0, cfg.TailKeep)
	if cfg.HeadEvery > 0 {
		t.head = make([]Attribution, 0, cfg.HeadKeep)
		t.headPhase = uint64(sweep.DeriveSeed(cfg.Seed, 0)) % uint64(cfg.HeadEvery)
	}
	t.timelines = make([]*Timeline, len(cfg.Resolutions))
	for i, res := range cfg.Resolutions {
		t.timelines[i] = newTimeline(res, cfg.Horizon)
	}
	t.features = make([]*FeatureSeries, len(cfg.FeatureWindows))
	for i, res := range cfg.FeatureWindows {
		t.features[i] = newFeatureSeries(res, cfg.Horizon, cfg.TailOver)
	}
	return t, nil
}

// recBacking returns the pre-allocated Queue/Service arrays of sample
// record idx (tail records first, then head records).
func (t *Tracer) recBacking(idx int) (queue, service []time.Duration) {
	off := idx * 2 * t.tiers
	return t.backing[off : off+t.tiers : off+t.tiers],
		t.backing[off+t.tiers : off+2*t.tiers : off+2*t.tiers]
}

// Observe implements queueing.Observer.
//
//memca:hotpath
func (t *Tracer) Observe(req *queueing.Request, kind queueing.SpanKind, tier int) {
	now := t.engine.Now()
	attempt, aux := req.Attempt, time.Duration(0)
	switch kind {
	case queueing.SpanRetransmit:
		aux = req.Submit
	case queueing.SpanAbandon:
		attempt = 0
	}
	t.pushEvent(now, req.TraceID, kind, tier, attempt, aux)
	switch kind {
	case queueing.SpanSubmit:
		t.onSubmit(req, now)
	case queueing.SpanTierRequest:
		if si := req.TraceSlot; si >= 0 {
			t.work(si, tier).reqAt = now
		}
	case queueing.SpanServiceStart:
		if si := req.TraceSlot; si >= 0 {
			w := t.work(si, tier)
			if w.reqAt >= 0 {
				w.queue += now - w.reqAt
				w.reqAt = -1
			}
			w.svcAt = now
		}
	case queueing.SpanServiceEnd:
		if si := req.TraceSlot; si >= 0 {
			w := t.work(si, tier)
			if w.svcAt >= 0 {
				w.service += now - w.svcAt
				w.svcAt = -1
			}
		}
	case queueing.SpanDrop:
		t.onDrop(req, tier, now)
	case queueing.SpanComplete:
		if si := req.TraceSlot; si >= 0 {
			t.closeSlot(si, now, false)
		}
	case queueing.SpanAbandon:
		if si := req.TraceSlot; si >= 0 {
			t.closeSlot(si, now, true)
		}
	}
}

func (t *Tracer) pushEvent(now time.Duration, traceID uint64, kind queueing.SpanKind, tier, attempt int, aux time.Duration) {
	if len(t.events) == 0 {
		return
	}
	e := &t.events[t.evNext]
	if t.evNext++; t.evNext == len(t.events) {
		t.evNext = 0
	}
	e.T = now
	e.Seq = t.eventSeq
	e.TraceID = traceID
	e.Aux = aux
	e.Kind = kind
	e.Tier = int8(tier)
	e.Attempt = uint16(attempt)
	t.eventSeq++
}

func (t *Tracer) work(si int32, tier int) *tierStamps {
	return &t.tierWork[int(si)*t.tiers+tier]
}

func (t *Tracer) onSubmit(req *queueing.Request, now time.Duration) {
	if req.Attempt > 0 {
		// A retransmission rejoins its open trace through the slot the
		// client carried over from the dropped attempt.
		si := req.TraceSlot
		if si < 0 {
			return // the trace is untracked
		}
		s := &t.slots[si]
		s.attempts++
		if s.lastDrop >= 0 {
			s.retransWait += now - s.lastDrop
			s.lastDrop = -1
		}
		return
	}
	k := len(t.freeSlots)
	if k == 0 {
		t.untracked++
		return
	}
	si := t.freeSlots[k-1]
	t.freeSlots = t.freeSlots[:k-1]
	req.TraceSlot = si
	s := &t.slots[si]
	s.traceID = req.TraceID
	s.first = now
	s.lastDrop = -1
	s.retransWait = 0
	s.class = req.Class
	s.attempts = 1
	s.drops = 0
	s.open = true
	s.discard = false
	base := int(si) * t.tiers
	for i := 0; i < t.tiers; i++ {
		t.tierWork[base+i] = tierStamps{reqAt: -1, svcAt: -1}
	}
}

func (t *Tracer) onDrop(req *queueing.Request, tier int, now time.Duration) {
	si := req.TraceSlot
	if si < 0 {
		return
	}
	s := &t.slots[si]
	s.drops++
	s.lastDrop = now
	// The refusing tier fired SpanTierRequest at the same instant; clear
	// the dangling queue-enter stamp so it cannot leak into the next
	// attempt's queueing time.
	t.work(si, tier).reqAt = -1
}

func (t *Tracer) closeSlot(si int32, end time.Duration, abandoned bool) {
	s := &t.slots[si]
	if s.discard {
		t.freeSlot(si)
		return
	}
	rt := end - s.first
	base := int(si) * t.tiers
	var totalQueue, totalService time.Duration
	for i := 0; i < t.tiers; i++ {
		totalQueue += t.tierWork[base+i].queue
		totalService += t.tierWork[base+i].service
	}

	for _, tl := range t.timelines {
		tl.add(end, rt, totalQueue, s.drops)
	}
	for _, fs := range t.features {
		fs.Add(end, rt, totalQueue, totalService, s.retransWait, s.attempts, s.drops)
	}

	t.sampleTail(si, rt, end, abandoned)
	idx := t.closed
	t.closed++
	if t.cfg.HeadEvery > 0 && idx%uint64(t.cfg.HeadEvery) == t.headPhase {
		t.sampleHead(si, rt, end, abandoned)
	}
	t.freeSlot(si)
}

func (t *Tracer) freeSlot(si int32) {
	t.slots[si].open = false
	t.freeSlots = append(t.freeSlots, si)
}

// fill writes the slot's attribution into rec, reusing rec's Queue/Service
// arrays (they must already have t.tiers entries).
func (t *Tracer) fill(rec *Attribution, si int32, rt, end time.Duration, abandoned bool) {
	s := &t.slots[si]
	rec.TraceID = s.traceID
	rec.Class = s.class
	rec.Start = s.first
	rec.End = end
	rec.RT = rt
	rec.Attempts = s.attempts
	rec.Drops = s.drops
	rec.Abandoned = abandoned
	rec.RetransWait = s.retransWait
	base := int(si) * t.tiers
	var tq, ts time.Duration
	for i := 0; i < t.tiers; i++ {
		q, sv := t.tierWork[base+i].queue, t.tierWork[base+i].service
		rec.Queue[i] = q
		rec.Service[i] = sv
		tq += q
		ts += sv
	}
	rec.Other = rt - tq - ts - rec.RetransWait
}

// tailLess orders the tail min-heap: the root is the fastest kept trace,
// evicted first. TraceID breaks RT ties so the kept set is deterministic.
func tailLess(a, b *Attribution) bool {
	if a.RT != b.RT {
		return a.RT < b.RT
	}
	return a.TraceID < b.TraceID
}

func (t *Tracer) sampleTail(si int32, rt, end time.Duration, abandoned bool) {
	if t.cfg.TailKeep == 0 {
		return
	}
	if len(t.tail) < t.cfg.TailKeep {
		t.tail = t.tail[:len(t.tail)+1]
		rec := &t.tail[len(t.tail)-1]
		if rec.Queue == nil {
			rec.Queue, rec.Service = t.recBacking(len(t.tail) - 1)
		}
		t.fill(rec, si, rt, end, abandoned)
		t.tailSiftUp(len(t.tail) - 1)
		return
	}
	root := &t.tail[0]
	if rt < root.RT || (rt == root.RT && t.slots[si].traceID <= root.TraceID) {
		return
	}
	t.fill(root, si, rt, end, abandoned)
	t.tailSiftDown(0)
}

func (t *Tracer) tailSiftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !tailLess(&t.tail[i], &t.tail[parent]) {
			return
		}
		t.tail[i], t.tail[parent] = t.tail[parent], t.tail[i]
		i = parent
	}
}

func (t *Tracer) tailSiftDown(i int) {
	n := len(t.tail)
	for {
		least := i
		if l := 2*i + 1; l < n && tailLess(&t.tail[l], &t.tail[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && tailLess(&t.tail[r], &t.tail[least]) {
			least = r
		}
		if least == i {
			return
		}
		t.tail[i], t.tail[least] = t.tail[least], t.tail[i]
		i = least
	}
}

func (t *Tracer) sampleHead(si int32, rt, end time.Duration, abandoned bool) {
	var rec *Attribution
	if len(t.head) < t.cfg.HeadKeep {
		t.head = t.head[:len(t.head)+1]
		rec = &t.head[len(t.head)-1]
		if rec.Queue == nil {
			rec.Queue, rec.Service = t.recBacking(t.cfg.TailKeep + len(t.head) - 1)
		}
	} else {
		rec = &t.head[t.headNext]
	}
	t.headNext = (t.headNext + 1) % t.cfg.HeadKeep
	t.headCount++
	t.fill(rec, si, rt, end, abandoned)
}

// Reset starts a fresh measurement window at virtual time base: samples,
// aggregates, timelines, and the event ring are cleared, and every trace
// still open (its timing mixes warmup with measurement) is marked to be
// discarded when it closes. Call it after the warmup phase, mirroring the
// metric resets of the surrounding experiment.
func (t *Tracer) Reset(base time.Duration) {
	for i := range t.slots {
		if t.slots[i].open {
			t.slots[i].discard = true
		}
	}
	t.evNext, t.eventSeq = 0, 0
	t.tail = t.tail[:0]
	t.head = t.head[:0]
	t.headNext = 0
	t.headCount = 0
	t.closed = 0
	t.untracked = 0
	for _, tl := range t.timelines {
		tl.reset(base)
	}
	for _, fs := range t.features {
		fs.reset(base)
	}
}

// Closed returns the number of traces closed (completed or abandoned)
// since the last Reset, excluding discarded warmup traces.
func (t *Tracer) Closed() uint64 { return t.closed }

// Untracked returns how many traces overflowed MaxActive.
func (t *Tracer) Untracked() uint64 { return t.untracked }

// OpenTraces returns the number of currently open trace slots.
//
//memca:keep perfbench (a separate module) checks trace-export leaves no trace open
func (t *Tracer) OpenTraces() int { return len(t.slots) - len(t.freeSlots) }

// Timelines returns the dual-resolution timelines, in Resolutions order
// (shared; do not mutate).
func (t *Tracer) Timelines() []*Timeline { return t.timelines }

// Timeline returns the timeline at the given resolution, or nil.
func (t *Tracer) Timeline(res time.Duration) *Timeline {
	for _, tl := range t.timelines {
		if tl.Res == res {
			return tl
		}
	}
	return nil
}

// Features returns the streaming feature series, in FeatureWindows order
// (shared; do not mutate).
func (t *Tracer) Features() []*FeatureSeries { return t.features }

// FeaturesAt returns the feature series at the given window width, or nil.
func (t *Tracer) FeaturesAt(res time.Duration) *FeatureSeries {
	for _, fs := range t.features {
		if fs.Res == res {
			return fs
		}
	}
	return nil
}

// TierNames returns the configured tier labels, or generated ones.
func (t *Tracer) TierNames() []string {
	if t.cfg.TierNames != nil {
		return t.cfg.TierNames
	}
	names := make([]string, t.tiers)
	for i := range names {
		names[i] = fmt.Sprintf("tier%d", i)
	}
	return names
}

// TailAttributions returns the slowest-N sample ordered slowest first
// (ties by TraceID ascending). The returned records are deep copies.
func (t *Tracer) TailAttributions() []Attribution {
	out := copyAttributions(t.tail, t.tiers)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RT != out[j].RT {
			return out[i].RT > out[j].RT
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// HeadAttributions returns the deterministic 1-in-K head sample in close
// order. The returned records are deep copies.
func (t *Tracer) HeadAttributions() []Attribution {
	out := copyAttributions(t.head, t.tiers)
	if uint64(len(t.head)) < t.headCount {
		// The reservoir wrapped: rotate so the oldest kept record leads.
		rot := make([]Attribution, 0, len(out))
		rot = append(rot, out[t.headNext:]...)
		rot = append(rot, out[:t.headNext]...)
		return rot
	}
	return out
}

func copyAttributions(recs []Attribution, tiers int) []Attribution {
	out := make([]Attribution, len(recs))
	slab := make([]time.Duration, len(recs)*2*tiers)
	for i := range recs {
		out[i] = recs[i]
		off := i * 2 * tiers
		out[i].Queue = slab[off : off+tiers]
		out[i].Service = slab[off+tiers : off+2*tiers]
		copy(out[i].Queue, recs[i].Queue)
		copy(out[i].Service, recs[i].Service)
	}
	return out
}

// Events returns a copy of the span-event ring in sequence order (oldest
// first). The slice is freshly allocated, so it stays valid while the
// tracer records on; the tracer's own WriteChromeTrace and WriteOTLP read
// the ring in place instead.
//
//memca:keep the ring-export tests check the in-place exporters against this copying reference
func (t *Tracer) Events() []SpanEvent {
	if len(t.events) == 0 || t.eventSeq == 0 {
		return nil
	}
	out := make([]SpanEvent, t.EventCount())
	if t.eventSeq <= uint64(len(t.events)) {
		copy(out, t.events)
		return out
	}
	copy(out, t.events[t.evNext:])
	copy(out[len(t.events)-t.evNext:], t.events[:t.evNext])
	return out
}

// orderedEvents returns the span-event ring itself in sequence order
// (oldest first), rotating a wrapped ring in place with three reversals
// so that its oldest event sits at index 0 and no event is copied. The
// rotation moves the write cursor with it, so recording can continue
// afterwards; the slice aliases the ring and is valid until the next
// recorded event.
func (t *Tracer) orderedEvents() []SpanEvent {
	if t.eventSeq <= uint64(len(t.events)) {
		return t.events[:t.eventSeq]
	}
	if k := t.evNext; k != 0 {
		slices.Reverse(t.events[:k])
		slices.Reverse(t.events[k:])
		slices.Reverse(t.events)
		t.evNext = 0
	}
	return t.events
}

// EventCount returns how many span events the ring holds: those recorded
// since the last Reset, at most the ring's capacity.
func (t *Tracer) EventCount() int {
	return int(min(t.eventSeq, uint64(len(t.events))))
}

// EventsDropped returns how many span events were overwritten in the ring.
func (t *Tracer) EventsDropped() uint64 {
	if len(t.events) == 0 {
		return 0
	}
	if n := uint64(len(t.events)); t.eventSeq > n {
		return t.eventSeq - n
	}
	return 0
}
