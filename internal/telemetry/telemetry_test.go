package telemetry

import (
	"reflect"
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/sweep"
)

// testSpec returns a small spec with window series disabled.
func testSpec() Spec {
	return Spec{MaxActive: 64, EventRing: 4096, TailKeep: 16}
}

// buildTraced wires a tracer into a fresh network. tiers are
// (queueLimit, servers, deterministic service) triples applied in order.
func buildTraced(t *testing.T, e *sim.Engine, spec Spec, horizon time.Duration, tiers ...queueing.TierConfig) (*queueing.Network, *Tracer) {
	t.Helper()
	return buildTracedRetransmit(t, e, spec, horizon, queueing.RetransmitPolicy{}, tiers...)
}

// buildTracedRetransmit is buildTraced for a network whose clients
// retransmit under policy.
func buildTracedRetransmit(t *testing.T, e *sim.Engine, spec Spec, horizon time.Duration, policy queueing.RetransmitPolicy, tiers ...queueing.TierConfig) (*queueing.Network, *Tracer) {
	t.Helper()
	tr, err := New(e, Config{Arena: stats.NewArena(), Spec: spec, Tiers: len(tiers), Seed: 1, Horizon: horizon})
	if err != nil {
		t.Fatalf("telemetry.New: %v", err)
	}
	classes := make([]queueing.Class, len(tiers))
	for i := range tiers {
		classes[i] = queueing.Class{Name: "depth", Depth: i}
	}
	n, err := queueing.New(e, queueing.Config{
		Arena:      stats.NewArena(),
		Mode:       queueing.ModeNTierRPC,
		Tiers:      tiers,
		Classes:    classes,
		Retransmit: policy,
		Observer:   tr,
	})
	if err != nil {
		t.Fatalf("queueing.New: %v", err)
	}
	return n, tr
}

func detTier(name string, q, servers int, service time.Duration) queueing.TierConfig {
	return queueing.TierConfig{Name: name, QueueLimit: q, Servers: servers, Service: sim.NewDeterministic(service)}
}

func TestAttributionSingleRequest(t *testing.T) {
	e := sim.NewEngine(1)
	n, tr := buildTraced(t, e, testSpec(), 0,
		detTier("front", queueing.Infinite, 1, 10*time.Millisecond),
		detTier("back", queueing.Infinite, 1, 20*time.Millisecond),
	)
	if _, err := n.Submit(queueing.SubmitOpts{Class: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if tr.Closed() != 1 {
		t.Fatalf("closed = %d, want 1", tr.Closed())
	}
	tail := tr.TailAttributions()
	if len(tail) != 1 {
		t.Fatalf("tail has %d records, want 1", len(tail))
	}
	r := tail[0]
	if r.RT != 30*time.Millisecond {
		t.Errorf("RT = %v, want 30ms", r.RT)
	}
	if r.Service[0] != 10*time.Millisecond || r.Service[1] != 20*time.Millisecond {
		t.Errorf("service = %v, want [10ms 20ms]", r.Service)
	}
	if r.Queue[0] != 0 || r.Queue[1] != 0 {
		t.Errorf("queue = %v, want zeros (idle system)", r.Queue)
	}
	if r.RetransWait != 0 || r.Other != 0 || r.Attempts != 1 || r.Drops != 0 || r.Abandoned {
		t.Errorf("unexpected components: %+v", r)
	}
	if got := r.TotalQueue() + sumDurations(r.Service) + r.RetransWait + r.Other; got != r.RT {
		t.Errorf("attribution identity broken: components sum to %v, RT %v", got, r.RT)
	}
}

func TestAttributionQueueing(t *testing.T) {
	e := sim.NewEngine(1)
	n, tr := buildTraced(t, e, testSpec(), 0,
		detTier("only", queueing.Infinite, 1, 10*time.Millisecond))
	for i := 0; i < 3; i++ {
		if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	tail := tr.TailAttributions() // sorted slowest first
	if len(tail) != 3 {
		t.Fatalf("tail has %d records, want 3", len(tail))
	}
	// The k-th arrival (same instant, FIFO) waits k*10ms and serves 10ms.
	for i, wantQueue := range []time.Duration{20 * time.Millisecond, 10 * time.Millisecond, 0} {
		r := tail[i]
		if r.Queue[0] != wantQueue {
			t.Errorf("record %d queue = %v, want %v", i, r.Queue[0], wantQueue)
		}
		if r.Service[0] != 10*time.Millisecond {
			t.Errorf("record %d service = %v, want 10ms", i, r.Service[0])
		}
		if r.RT != wantQueue+10*time.Millisecond {
			t.Errorf("record %d RT = %v, want %v", i, r.RT, wantQueue+10*time.Millisecond)
		}
	}
}

func TestRetransmissionWait(t *testing.T) {
	e := sim.NewEngine(1)
	// QueueLimit 1: the second submission is refused while the first is in
	// service, and its client retransmits it 50ms later.
	const rto = 50 * time.Millisecond
	n, tr := buildTracedRetransmit(t, e, testSpec(), 0, queueing.RetransmitPolicy{RTOMin: rto, Backoff: 1, MaxRetries: 1},
		detTier("front", 1, 1, 10*time.Millisecond))
	if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	queueing.NewClient(n, nil).Submit(0, nil)
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if tr.Closed() != 2 {
		t.Fatalf("closed = %d, want 2", tr.Closed())
	}
	r := tr.TailAttributions()[0] // the retransmitted trace is slowest
	if r.Attempts != 2 || r.Drops != 1 {
		t.Fatalf("attempts/drops = %d/%d, want 2/1", r.Attempts, r.Drops)
	}
	if r.RetransWait != rto {
		t.Errorf("retransmission wait = %v, want %v", r.RetransWait, rto)
	}
	// Dropped at 0, resubmitted at 50ms into an idle tier: no queueing.
	if r.Queue[0] != 0 {
		t.Errorf("queue = %v, want 0", r.Queue[0])
	}
	if r.RT != rto+10*time.Millisecond {
		t.Errorf("RT = %v, want %v", r.RT, rto+10*time.Millisecond)
	}
	if got := r.TotalQueue() + sumDurations(r.Service) + r.RetransWait + r.Other; got != r.RT {
		t.Errorf("attribution identity broken: components sum to %v, RT %v", got, r.RT)
	}
}

func TestAbandonClosesTrace(t *testing.T) {
	e := sim.NewEngine(1)
	// The second submission is refused; its client stops before the
	// retransmission comes due 5ms later, so the trace is abandoned then.
	n, tr := buildTracedRetransmit(t, e, testSpec(), 0, queueing.RetransmitPolicy{RTOMin: 5 * time.Millisecond, Backoff: 1, MaxRetries: 1},
		detTier("front", 1, 1, 10*time.Millisecond))
	if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	c := queueing.NewClient(n, nil)
	c.Submit(0, nil)
	c.Stopped = true
	dropped := uint64(2) // the network numbers traces from 1 in submit order
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if tr.Closed() != 2 {
		t.Fatalf("closed = %d, want 2", tr.Closed())
	}
	var found bool
	for _, r := range tr.TailAttributions() {
		if r.TraceID == dropped {
			found = true
			if !r.Abandoned {
				t.Error("abandoned trace not flagged")
			}
			if r.RT != 5*time.Millisecond {
				t.Errorf("abandoned RT = %v, want 5ms (drop at 0, give-up at 5ms)", r.RT)
			}
		}
	}
	if !found {
		t.Error("abandoned trace missing from tail sample")
	}
	if c.Retransmissions() != 1 || c.Failures() != 0 {
		t.Errorf("retransmissions/failures = %d/%d, want 1/0", c.Retransmissions(), c.Failures())
	}
	// Abandoning an untracked trace is a no-op.
	tr.Observe(&queueing.Request{TraceID: 999999, TraceSlot: -1}, queueing.SpanAbandon, -1)
	if tr.Closed() != 2 {
		t.Error("abandoning an unknown trace changed state")
	}
}

func TestTailSamplingKeepsSlowest(t *testing.T) {
	e := sim.NewEngine(1)
	spec := testSpec()
	spec.TailKeep = 3
	n, tr := buildTraced(t, e, spec, 0,
		detTier("only", queueing.Infinite, 1, 10*time.Millisecond))
	// Six simultaneous arrivals into one server: RT = 10ms..60ms.
	for i := 0; i < 6; i++ {
		if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	tail := tr.TailAttributions()
	if len(tail) != 3 {
		t.Fatalf("tail has %d records, want 3", len(tail))
	}
	want := []time.Duration{60 * time.Millisecond, 50 * time.Millisecond, 40 * time.Millisecond}
	for i, r := range tail {
		if r.RT != want[i] {
			t.Errorf("tail[%d].RT = %v, want %v (slowest-N, slowest first)", i, r.RT, want[i])
		}
	}
	if tr.Closed() != 6 {
		t.Errorf("closed = %d, want 6 (sampling must not affect counting)", tr.Closed())
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	run := func() []uint64 {
		e := sim.NewEngine(1)
		spec := testSpec()
		spec.HeadEvery = 4
		spec.HeadKeep = 8
		n, tr := buildTraced(t, e, spec, 0,
			detTier("only", queueing.Infinite, 4, 10*time.Millisecond))
		for i := 0; i < 20; i++ {
			if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.RunAll(1000); err != nil {
			t.Fatal(err)
		}
		head := tr.HeadAttributions()
		ids := make([]uint64, len(head))
		for i, r := range head {
			ids[i] = r.TraceID
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("head kept %d traces, want 5 (20 closed, 1-in-4)", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("head sample not deterministic: %v vs %v", a, b)
		}
	}
	// The phase derives from the frozen seed scheme, not the engine RNG.
	wantPhase := uint64(sweep.DeriveSeed(1, 0)) % 4
	gotFirst := a[0]
	if (gotFirst-1)%4 != wantPhase {
		t.Errorf("first head trace ID %d does not match phase %d", gotFirst, wantPhase)
	}
}

func TestResetDiscardsOpenTraces(t *testing.T) {
	e := sim.NewEngine(1)
	n2, tr2 := buildTraced(t, e, testSpec(), time.Second,
		detTier("only", queueing.Infinite, 1, 10*time.Millisecond))
	if _, err := n2.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	// Reset mid-flight: the open trace's timing mixes eras and must not
	// be sampled when it closes.
	tr2.Reset(e.Now())
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if tr2.Closed() != 0 {
		t.Errorf("closed = %d, want 0 (pre-reset trace must be discarded)", tr2.Closed())
	}
	if len(tr2.TailAttributions()) != 0 {
		t.Error("discarded trace leaked into the tail sample")
	}
	if tr2.OpenTraces() != 0 {
		t.Errorf("open = %d, want 0 (discarded slot must still be freed)", tr2.OpenTraces())
	}
	// The tracer keeps working for post-reset traffic.
	if _, err := n2.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if tr2.Closed() != 1 {
		t.Errorf("closed = %d after reset, want 1", tr2.Closed())
	}
}

func TestUntrackedOverflow(t *testing.T) {
	e := sim.NewEngine(1)
	spec := testSpec()
	spec.MaxActive = 2
	n, tr := buildTraced(t, e, spec, 0,
		detTier("only", queueing.Infinite, 1, 10*time.Millisecond))
	for i := 0; i < 5; i++ {
		if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	// Three of the five simultaneous traces overflow MaxActive=2.
	if tr.Untracked() != 3 {
		t.Errorf("untracked = %d, want 3", tr.Untracked())
	}
	if tr.Closed() != 2 {
		t.Errorf("closed = %d, want 2", tr.Closed())
	}
}

func TestTimelineWindows(t *testing.T) {
	e := sim.NewEngine(1)
	spec := testSpec()
	spec.FeatureWindows = []time.Duration{50 * time.Millisecond, 200 * time.Millisecond}
	n, tr := buildTraced(t, e, spec, 400*time.Millisecond,
		detTier("only", queueing.Infinite, 1, 10*time.Millisecond))
	// One completion at 10ms, a burst of three finishing at 110/120/130ms.
	if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	e.Schedule(100*time.Millisecond, func() {
		for i := 0; i < 3; i++ {
			if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
				t.Errorf("burst submit: %v", err)
			}
		}
	})
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	fine := tr.FeaturesAt(50 * time.Millisecond)
	coarse := tr.FeaturesAt(200 * time.Millisecond)
	if fine == nil || coarse == nil {
		t.Fatal("timelines missing")
	}
	if tr.FeaturesAt(time.Hour) != nil {
		t.Error("lookup of an unconfigured resolution should return nil")
	}
	fp := fine.Windows()
	if len(fp) != 3 {
		t.Fatalf("fine timeline has %d windows, want 3 (last completion at 130ms)", len(fp))
	}
	if fp[0].Count != 1 || fp[1].Count != 0 || fp[2].Count != 3 {
		t.Errorf("fine counts = %d/%d/%d, want 1/0/3", fp[0].Count, fp[1].Count, fp[2].Count)
	}
	// Window [100,150)ms: RT 10, 20, 30ms -> mean 20ms, max 30ms.
	if fp[2].MeanRT() != 20*time.Millisecond || fp[2].MaxRT != 30*time.Millisecond {
		t.Errorf("fine window 2 mean/max = %v/%v, want 20ms/30ms", fp[2].MeanRT(), fp[2].MaxRT)
	}
	cp := coarse.Windows()
	if len(cp) != 1 || cp[0].Count != 4 {
		t.Fatalf("coarse timeline = %+v, want one window with 4 closes", cp)
	}
	// Blindness: fine peak 20ms vs the coarse view of that instant,
	// (10+10+20+30)/4 = 17.5ms.
	want := float64(20*time.Millisecond) / float64(17500*time.Microsecond)
	if got := fine.BlindnessRatio(coarse); got != want {
		t.Errorf("blindness ratio = %v, want %v", got, want)
	}
}

func TestEventRingWraps(t *testing.T) {
	e := sim.NewEngine(1)
	spec := testSpec()
	spec.EventRing = 8
	n, tr := buildTraced(t, e, spec, 0,
		detTier("only", queueing.Infinite, 1, time.Millisecond))
	for i := 0; i < 4; i++ {
		if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring returned %d events, want 8", len(evs))
	}
	if tr.EventsDropped() == 0 {
		t.Error("expected overwritten events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
		if evs[i].T < evs[i-1].T {
			t.Fatalf("events not time-ordered: %v after %v", evs[i].T, evs[i-1].T)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	e := sim.NewEngine(1)
	a := stats.NewArena()
	bad := []Config{
		{Arena: a, Spec: Spec{MaxActive: 0}, Tiers: 1},
		{Arena: a, Spec: Spec{MaxActive: 8, EventRing: -1}, Tiers: 1},
		{Arena: a, Spec: Spec{MaxActive: 8, TailKeep: -1}, Tiers: 1},
		{Arena: a, Spec: Spec{MaxActive: 8, HeadEvery: 2, HeadKeep: 0}, Tiers: 1},
		{Arena: a, Spec: Spec{MaxActive: 8, FeatureWindows: []time.Duration{0}}, Tiers: 1, Horizon: time.Second},
		{Arena: a, Spec: Spec{MaxActive: 8, FeatureWindows: []time.Duration{time.Second}}, Tiers: 1},
		{Arena: a, Spec: Spec{MaxActive: 8}, Tiers: 0},
		{Arena: a, Spec: Spec{MaxActive: 8}, Tiers: 2, TierNames: []string{"one"}},
		{Spec: DefaultSpec(), Tiers: 3, Horizon: time.Minute}, // no arena
	}
	for i, cfg := range bad {
		if _, err := New(e, cfg); err == nil {
			t.Errorf("config %d accepted, want error: %+v", i, cfg)
		}
	}
	if _, err := New(nil, Config{Spec: DefaultSpec(), Tiers: 3, Horizon: time.Minute, Arena: a}); err == nil {
		t.Error("nil engine accepted")
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("DefaultSpec invalid: %v", err)
	}
}

func TestEventKindStrings(t *testing.T) {
	cases := map[queueing.SpanKind]string{
		queueing.SpanSubmit:     "submit",
		queueing.SpanComplete:   "complete",
		queueing.SpanRetransmit: "retransmit-scheduled",
		queueing.SpanAbandon:    "abandoned",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("SpanKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// sumDurations totals an attribution's per-tier components.
func sumDurations(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// TestAssembleMatchesTracer checks Assemble against the tracer on the
// golden scenario: the recorded span log reassembles every trace's
// attribution exactly, except Class, which span events do not carry.
func TestAssembleMatchesTracer(t *testing.T) {
	tr := goldenScenario(t)
	attrs, open, orphans := Assemble(len(tr.TierNames()), tr.Events())
	if open != 0 || orphans != 0 {
		t.Errorf("open %d, orphans %d; want 0, 0", open, orphans)
	}
	want := tr.TailAttributions()
	if len(attrs) != len(want) {
		t.Fatalf("assembled %d traces, want %d", len(attrs), len(want))
	}
	byID := make(map[uint64]Attribution)
	for _, a := range attrs {
		byID[a.TraceID] = a
	}
	for _, w := range want {
		got := byID[w.TraceID]
		got.Class = w.Class
		if !reflect.DeepEqual(got, w) {
			t.Errorf("trace %d:\n assembled %+v\n tracer    %+v", w.TraceID, got, w)
		}
	}
}
