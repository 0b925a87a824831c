// Package telemetry reconstructs per-request causal traces from the
// queueing network's Observer hook: where each request spent its time
// (per-tier queueing vs service vs retransmission wait), which requests
// landed in the latency tail, and, in one FeatureSeries per window width,
// what client latency and the detection features look like at monitoring
// resolutions fine enough to see a millibottleneck and coarse enough to
// miss it.
//
// One state machine (traceBook) holds the rules that turn a trace's span
// events into its Attribution. The Tracer drives it as the simulation
// runs; Assemble drives it over a recorded span log, which is how the
// live collector's wall-clock runs are attributed.
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
	// FeatureWindows lists the window widths of the tracer's series: for
	// each width it maintains one FeatureSeries, booked once per closed
	// trace, that holds both the latency timeline (mean and peak response
	// and queueing time; 50ms against 1s contrasts fine-grained and coarse
	// monitoring views) and the per-window detection features
	// (retransmission-wait share, drop rate, queue-vs-service split,
	// tail-over count). Empty disables both.
	FeatureWindows []time.Duration
	// TailOver is the response-time threshold for the per-window TailOver
	// count (the paper's 1 s damage line is the canonical choice); zero
	// disables the count. Only meaningful with FeatureWindows set.
	TailOver time.Duration
}

// DefaultSpec returns tracer settings sized for the paper's experiments:
// room for every concurrent client of the default workload, a 64K event
// ring, 512-deep tail and head samples, and the 50ms and 1s window series
// of the monitoring-blindness analysis.
func DefaultSpec() Spec {
	return Spec{
		MaxActive:      16384,
		EventRing:      1 << 16,
		TailKeep:       512,
		HeadEvery:      64,
		HeadKeep:       512,
		FeatureWindows: []time.Duration{50 * time.Millisecond, time.Second},
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
	// Horizon bounds the window series: they cover [base, base+Horizon]
	// and traces closing beyond that (the post-run drain) are not booked.
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

// Tracer implements queueing.Observer to reconstruct per-request causal
// traces. All methods run on the simulator goroutine.
type Tracer struct {
	engine *sim.Engine
	cfg    Config
	tiers  int

	// book holds the open traces' state, one slot per trace, addressed
	// by Request.TraceSlot; freeSlots lists the slots not in use.
	book      traceBook
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

	features []*FeatureSeries

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
		engine: engine,
		cfg:    cfg,
		tiers:  cfg.Tiers,
		book: traceBook{
			tiers: cfg.Tiers,
			slots: make([]traceSlot, cfg.MaxActive),
			work:  make([]tierStamps, cfg.MaxActive*cfg.Tiers),
		},
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
	si := req.TraceSlot
	switch kind {
	case queueing.SpanSubmit:
		if req.Attempt == 0 {
			// A first attempt opens its trace; a retransmission rejoins
			// it through the slot the client carried over.
			si = t.openSlot(req, now)
		}
	case queueing.SpanComplete, queueing.SpanAbandon:
		if si >= 0 {
			t.closeSlot(si, now, kind == queueing.SpanAbandon)
		}
		return
	}
	if si >= 0 {
		t.book.step(si, kind, tier, attempt, now)
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

// openSlot claims a free slot for req's trace and records it in
// req.TraceSlot, or counts the trace untracked and returns -1 when
// MaxActive traces are open.
func (t *Tracer) openSlot(req *queueing.Request, now time.Duration) int32 {
	k := len(t.freeSlots)
	if k == 0 {
		t.untracked++
		return -1
	}
	si := t.freeSlots[k-1]
	t.freeSlots = t.freeSlots[:k-1]
	req.TraceSlot = si
	t.book.open(si, req.TraceID, req.Class, now)
	return si
}

func (t *Tracer) closeSlot(si int32, end time.Duration, abandoned bool) {
	s := &t.book.slots[si]
	if s.discard {
		t.freeSlot(si)
		return
	}
	rt := end - s.first
	totalQueue, totalService := t.book.totals(si)
	for _, fs := range t.features {
		fs.Add(end, rt, totalQueue, totalService, s.retransWait, s.attempts, s.drops)
	}

	t.sampleTail(si, rt, end, abandoned)
	idx := t.closed
	t.closed++
	if t.cfg.HeadEvery > 0 && idx%uint64(t.cfg.HeadEvery) == t.headPhase {
		t.sampleHead(si, end, abandoned)
	}
	t.freeSlot(si)
}

func (t *Tracer) freeSlot(si int32) {
	t.book.slots[si].open = false
	t.freeSlots = append(t.freeSlots, si)
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
		t.book.fill(rec, si, end, abandoned)
		t.tailSiftUp(len(t.tail) - 1)
		return
	}
	root := &t.tail[0]
	if rt < root.RT || (rt == root.RT && t.book.slots[si].traceID <= root.TraceID) {
		return
	}
	t.book.fill(root, si, end, abandoned)
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

func (t *Tracer) sampleHead(si int32, end time.Duration, abandoned bool) {
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
	t.book.fill(rec, si, end, abandoned)
}

// Reset starts a fresh measurement window at virtual time base: samples,
// aggregates, window series, and the event ring are cleared, and every trace
// still open (its timing mixes warmup with measurement) is marked to be
// discarded when it closes. Call it after the warmup phase, mirroring the
// metric resets of the surrounding experiment.
func (t *Tracer) Reset(base time.Duration) {
	for i := range t.book.slots {
		if s := &t.book.slots[i]; s.open {
			s.discard = true
		}
	}
	t.evNext, t.eventSeq = 0, 0
	t.tail = t.tail[:0]
	t.head = t.head[:0]
	t.headNext = 0
	t.headCount = 0
	t.closed = 0
	t.untracked = 0
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
func (t *Tracer) OpenTraces() int { return len(t.book.slots) - len(t.freeSlots) }

// Timelines returns the window series, like Features.
//
//memca:keep perfbench (a separate module) reads the timelines through it
func (t *Tracer) Timelines() []*FeatureSeries { return t.features }

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
