package memcafw

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/core"
	"memca/internal/queueing"
	"memca/internal/telemetry"
)

// TestReplayMatchesSimulatedLoop holds the live feedback loop to the
// simulated one. A simulated feedback run from a weak start records what
// its loop received: every probe's response time in arrival order, where
// each decision fell between them, and each decision's burst length (the
// simulation's millibottleneck estimate). Replayed through the Backend's
// record and decide path, with each burst length arriving as an FE burst
// report, the recording must reproduce the simulator's (R, L, I) and
// smoothed tail decision by decision. No socket or wall clock is used:
// the replay stamps samples with the run's virtual time.
//
// The FE reports whole milliseconds (ExecMs), so the Backend sees each
// burst length truncated. That cannot change a decision here: the
// millibottleneck enters a decision only through the stealth check
// "millibottleneck > Goal.MaxMillibottleneck" (1 s), and under
// DefaultBounds every burst length, truncated or not, lies in
// [MinBurst, MaxBurst] = [50 ms, 800 ms], below it. The same bound makes
// the reading of the burst length exact enough: it is taken just before
// each decision's instant, and a burst boundary at that very instant may
// retune the burst before the decision reads it.
func TestReplayMatchesSimulatedLoop(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Duration = 2 * time.Minute
	cfg.Warmup = 10 * time.Second
	cfg.Attack.Params = attack.Params{Intensity: 0.3, BurstLength: 60 * time.Millisecond, Interval: 4 * time.Second}
	fb := control.DefaultConfig()
	fb.DecisionEvery = 5 * time.Second
	cfg.Feedback = &fb
	spec := telemetry.DefaultSpec()
	spec.EventRing = 1 << 20
	spec.FeatureWindows = nil
	cfg.Trace = &spec
	if fb.Bounds.MaxBurst >= fb.Goal.MaxMillibottleneck {
		t.Fatalf("MaxBurst %v reaches the stealth bound %v: ExecMs truncation could change a decision",
			fb.Bounds.MaxBurst, fb.Goal.MaxMillibottleneck)
	}

	x, err := core.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// Decision k fires at Warmup + k*DecisionEvery while the measured
	// phase lasts. Events scheduled now fire before every event scheduled
	// later for the same instant, so the burst length is read before the
	// decision; the outcome is read 1 ns after it.
	type decision struct {
		at       time.Duration
		burst    time.Duration
		params   attack.Params
		smoothed time.Duration
	}
	decisions := make([]decision, (cfg.Duration-1)/fb.DecisionEvery)
	engine := x.Engine()
	for k := range decisions {
		d := &decisions[k]
		d.at = cfg.Warmup + time.Duration(k+1)*fb.DecisionEvery
		engine.At(d.at, func() { d.burst = x.Burster().Params().BurstLength })
		engine.At(d.at+1, func() {
			c := x.Feedback().Commander()
			d.params, d.smoothed = c.Params(), c.SmoothedTailRT()
		})
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	sim := x.Feedback().Commander()
	if sim.Decisions() != len(decisions) {
		t.Fatalf("simulation made %d decisions, want %d", sim.Decisions(), len(decisions))
	}
	if sim.Escalations() == 0 {
		t.Fatal("simulation never escalated: the replay would check nothing")
	}

	probes := probeRecord(t, x.Tracer(), cfg.Warmup, fb.ProbePeriod)
	if want := int(cfg.Duration / fb.ProbePeriod); len(probes) < want {
		t.Fatalf("found %d probes, want at least %d", len(probes), want)
	}

	b := newReplayBackend(t, fb, cfg.Attack.Params)
	epoch := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	i := 0
	for k, d := range decisions {
		for ; i < len(probes) && probes[i].end < d.at; i++ {
			b.record(epoch.Add(probes[i].end), probes[i].rt)
		}
		if i < len(probes) && probes[i].end == d.at {
			t.Fatalf("probe closed at decision %d's instant %v: arrival order unknown", k+1, d.at)
		}
		b.receive(TimedReport{BurstReport: BurstReport{Burst: k + 1, ExecMs: d.burst.Milliseconds()}, At: epoch.Add(d.at)})
		got, _ := b.decide()
		if smoothed := b.loop.Commander().SmoothedTailRT(); got != d.params || smoothed != d.smoothed {
			t.Fatalf("decision %d at %v: live R=%.4f L=%v I=%v (tail %v), simulated R=%.4f L=%v I=%v (tail %v)",
				k+1, d.at, got.Intensity, got.BurstLength, got.Interval, smoothed,
				d.params.Intensity, d.params.BurstLength, d.params.Interval, d.smoothed)
		}
	}
	live := b.loop.Commander()
	if live.Escalations() != sim.Escalations() || live.Backoffs() != sim.Backoffs() {
		t.Errorf("escalations/backoffs: live %d/%d, simulated %d/%d",
			live.Escalations(), live.Backoffs(), sim.Escalations(), sim.Backoffs())
	}
	t.Logf("%d decisions (%d escalations, %d backoffs) over %d probes", len(decisions), sim.Escalations(), sim.Backoffs(), i)
}

// replayProbe is one probe as the simulated loop received it: at end, with
// response time rt.
type replayProbe struct {
	end, rt time.Duration
}

// probeRecord recovers the feedback probes from a traced run's span log,
// ordered by when the loop received them. A probe enters the network on
// each probe tick from the start of the measured phase; its trace is the
// one whose first attempt is submitted at that tick. The loop receives a
// completed probe's client response time when its trace closes, and for
// a probe the client gave up on, the time until its final retransmission
// timeout would have expired.
func probeRecord(t *testing.T, tr *telemetry.Tracer, start, period time.Duration) []replayProbe {
	t.Helper()
	if d := tr.EventsDropped(); d != 0 {
		t.Fatalf("ring overwrote %d events; the replay needs the whole log", d)
	}
	events := tr.Events()
	ids := make(map[uint64]bool)
	for i := range events {
		e := &events[i]
		if e.Kind == queueing.SpanSubmit && e.Attempt == 0 && e.T >= start && (e.T-start)%period == 0 {
			ids[e.TraceID] = true
		}
	}
	var mine []telemetry.SpanEvent
	for _, e := range events {
		if ids[e.TraceID] {
			mine = append(mine, e)
		}
	}
	attrs, open, _ := telemetry.Assemble(len(tr.TierNames()), mine)
	if open != 0 || len(attrs) != len(ids) {
		t.Fatalf("%d probe traces, %d closed, %d open", len(ids), len(attrs), open)
	}
	policy := queueing.DefaultRetransmit()
	out := make([]replayProbe, len(attrs))
	for i, a := range attrs {
		out[i] = replayProbe{end: a.End, rt: a.RT}
		if a.Abandoned {
			out[i].rt += policy.RTO(a.Attempts)
		}
	}
	slices.SortFunc(out, func(a, b replayProbe) int { return cmp.Compare(a.end, b.end) })
	for i := 1; i < len(out); i++ {
		if out[i].end == out[i-1].end {
			t.Fatalf("two probes closed at %v: arrival order unknown", out[i].end)
		}
	}
	return out
}
