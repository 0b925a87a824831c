package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden writes one artifact via write, then compares it
// byte-for-byte against testdata/<name>. The export formats are artifact
// contracts — same-seed runs promise byte-identical traces — so any diff
// here is a breaking change. Regenerate deliberately with:
// go test ./internal/telemetry -run Golden -update
func checkGolden(t *testing.T, name string, write func(path string) error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := write(path); err != nil {
		t.Fatalf("writing %s: %v", name, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s back: %v", name, err)
	}
	goldenPath := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden file:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// giveUpObserver forwards every event to the tracer and, wait after trace
// is dropped, reports its abandonment: the golden scenario's client that
// gives up between retries. No production client does that, so it drives
// the tracer directly.
type giveUpObserver struct {
	*Tracer
	e     *sim.Engine
	trace uint64
	wait  time.Duration
}

func (o giveUpObserver) Observe(req *queueing.Request, kind queueing.SpanKind, tier int) {
	o.Tracer.Observe(req, kind, tier)
	if kind == queueing.SpanDrop && req.TraceID == o.trace {
		gone := &queueing.Request{TraceID: req.TraceID, TraceSlot: req.TraceSlot}
		o.e.Schedule(o.wait, func() { o.Tracer.Observe(gone, queueing.SpanAbandon, -1) })
	}
}

// goldenScenario runs a small deterministic two-tier scenario that
// exercises every export surface: queueing, two-tier service, a drop
// followed by a retransmission, and a drop followed by abandonment.
func goldenScenario(t testing.TB) *Tracer {
	t.Helper()
	e := sim.NewEngine(1)
	spec := Spec{
		MaxActive: 64,
		EventRing: 1 << 10,
		TailKeep:  16,
		HeadEvery: 2,
		HeadKeep:  16,
		// One 50ms window series; the 50ms tail threshold puts the
		// retransmitted trace (rt 50ms: 40ms wait + 10ms service), but
		// not the directly served ones, in tail_over.
		FeatureWindows: []time.Duration{50 * time.Millisecond},
		TailOver:       50 * time.Millisecond,
	}
	tr, err := New(e, Config{
		Arena:     stats.NewArena(),
		Spec:      spec,
		Tiers:     2,
		TierNames: []string{"apache", "tomcat"},
		Seed:      1,
		Horizon:   400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("telemetry.New: %v", err)
	}
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "apache", QueueLimit: 2, Servers: 1, Service: sim.NewDeterministic(10 * time.Millisecond)},
			{Name: "tomcat", QueueLimit: queueing.Infinite, Servers: 1, Service: sim.NewDeterministic(20 * time.Millisecond)},
		},
		Classes: []queueing.Class{
			{Name: "static", Depth: 0},
			{Name: "servlet", Depth: 1},
		},
		Retransmit: queueing.RetransmitPolicy{RTOMin: 40 * time.Millisecond, Backoff: 1, MaxRetries: 1},
		Observer:   giveUpObserver{Tracer: tr, e: e, trace: 4, wait: 15 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("queueing.New: %v", err)
	}
	// Trace 1: two-tier servlet, served immediately.
	if _, err := n.Submit(queueing.SubmitOpts{Class: 1}); err != nil {
		t.Fatal(err)
	}
	// Trace 2: static request that queues behind trace 1's front service.
	if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	// Trace 3: refused by the full front tier, retransmitted by a client
	// after the network's 40ms RTO.
	queueing.NewClient(n, nil).Submit(0, nil)
	// Trace 4: refused, and its client gives up 15ms later (see
	// giveUpObserver).
	if _, err := n.Submit(queueing.SubmitOpts{Class: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatal(err)
	}
	if tr.Closed() != 4 {
		t.Fatalf("scenario closed %d traces, want 4", tr.Closed())
	}
	return tr
}

func TestGoldenChromeTrace(t *testing.T) {
	tr := goldenScenario(t)
	checkGolden(t, "trace.json", func(path string) error {
		return tr.WriteChromeTrace(path)
	})
}

func TestGoldenAttributionCSV(t *testing.T) {
	tr := goldenScenario(t)
	checkGolden(t, "attribution.csv", func(path string) error {
		return WriteAttributionCSV(path, tr.TierNames(), tr.TailAttributions())
	})
}

func TestGoldenTimelineCSV(t *testing.T) {
	tr := goldenScenario(t)
	checkGolden(t, "timeline_50ms.csv", func(path string) error {
		return WriteTimelineCSV(path, tr.FeaturesAt(50*time.Millisecond))
	})
}

func TestGoldenOTLP(t *testing.T) {
	tr := goldenScenario(t)
	checkGolden(t, "otlp.json", func(path string) error {
		return tr.WriteOTLP(path, DefaultOTLPSpec())
	})
}

func TestGoldenFeaturesCSV(t *testing.T) {
	tr := goldenScenario(t)
	checkGolden(t, "features_50ms.csv", func(path string) error {
		return WriteFeaturesCSV(path, tr.FeaturesAt(50*time.Millisecond))
	})
}

func TestGoldenFeaturesOTLP(t *testing.T) {
	tr := goldenScenario(t)
	checkGolden(t, "features_otlp.json", func(path string) error {
		return WriteFeaturesOTLP(path, DefaultOTLPSpec(), tr.FeaturesAt(50*time.Millisecond))
	})
}

func TestGoldenBreakdownCSV(t *testing.T) {
	tr := goldenScenario(t)
	names := tr.TierNames()
	b := Summarize(len(names), tr.TailAttributions())
	checkGolden(t, "breakdown.csv", func(path string) error {
		return WriteBreakdownCSV(path, names, []string{"scenario"}, []Breakdown{b})
	})
}
