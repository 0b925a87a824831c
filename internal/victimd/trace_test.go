package victimd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memca/internal/telemetry/live"
)

func newChainCollector(t *testing.T) *live.Collector {
	t.Helper()
	col, err := live.New(live.Config{Tiers: TierNames(), Events: 1 << 16})
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	return col
}

func newTracedClient(t *testing.T, col *live.Collector, attempts int, backoff time.Duration) *live.Client {
	t.Helper()
	cl, err := live.NewClient(live.ClientConfig{Collector: col, MaxAttempts: attempts, Backoff: backoff})
	if err != nil {
		t.Fatalf("live.NewClient: %v", err)
	}
	return cl
}

// waitInflight polls a tier's /debug/counters endpoint until its inflight
// gauge reaches want (also exercising the counters format).
func waitInflight(t *testing.T, tier *Tier, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(tier.URL() + "/debug/counters")
		if err != nil {
			t.Fatalf("counters fetch: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("counters read: %v", err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "victimd.inflight" && f[1] != "0" {
				if f[1] == "1" && want == 1 {
					return
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tier %s never reached inflight=%d", tier.cfg.Name, want)
}

// TestTraceSurvivesChain drives traced requests end to end through a real
// web→app→db socket chain and checks the trace ID propagated: every
// closed trace carries service time in all three tiers, no span is left
// open, and the assembled report feeds the shared exporters.
func TestTraceSurvivesChain(t *testing.T) {
	col := newChainCollector(t)
	cfg := DefaultSystem()
	cfg.Trace = col
	sys, err := StartSystem(cfg)
	if err != nil {
		t.Fatalf("StartSystem: %v", err)
	}
	defer func() { _ = sys.Close() }()

	cl := newTracedClient(t, col, 1, 0)
	const n = 20
	for i := 0; i < n; i++ {
		res := cl.Get(context.Background(), sys.Web.URL()+"/")
		if !res.OK {
			t.Fatalf("request %d failed: status=%d err=%v", i, res.Status, res.Err)
		}
	}

	rep := col.Report()
	if rep.Open != 0 || rep.Orphans != 0 || rep.DroppedEvents != 0 {
		t.Fatalf("open=%d orphans=%d dropped=%d, want all zero", rep.Open, rep.Orphans, rep.DroppedEvents)
	}
	if len(rep.Attributions) != n {
		t.Fatalf("closed traces = %d, want %d", len(rep.Attributions), n)
	}
	for _, a := range rep.Attributions {
		if a.Abandoned || a.Drops != 0 || a.Attempts != 1 {
			t.Errorf("trace %d: unexpected failure marks %+v", a.TraceID, a)
		}
		for tier, name := range TierNames() {
			if a.Service[tier] <= 0 {
				t.Errorf("trace %d: no service time at %s — trace context lost on that hop", a.TraceID, name)
			}
		}
		var service time.Duration
		for _, d := range a.Service {
			service += d
		}
		if a.RT < service {
			t.Errorf("trace %d: RT %v < total service %v", a.TraceID, a.RT, service)
		}
	}
}

// TestTraceShedAtDB occupies the db tier's only worker so a traced
// request is shed at the back of the chain, then retried: the trace must
// record the drop at the db tier, the retransmission wait anchored at it,
// and a clean second attempt — one trace ID across both.
func TestTraceShedAtDB(t *testing.T) {
	col := newChainCollector(t)
	db, err := StartTier("127.0.0.1:0", TierConfig{
		Name: "db", Workers: 1, Service: 150 * time.Millisecond,
		Trace: col, TierIndex: 2,
	})
	if err != nil {
		t.Fatalf("db: %v", err)
	}
	defer func() { _ = db.Close() }()
	app, err := StartTier("127.0.0.1:0", TierConfig{
		Name: "app", Workers: 2, Service: time.Millisecond, Backend: db.URL() + "/",
		Trace: col, TierIndex: 1,
	})
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	defer func() { _ = app.Close() }()
	web, err := StartTier("127.0.0.1:0", TierConfig{
		Name: "web", Workers: 4, Service: time.Millisecond, Backend: app.URL() + "/",
		Trace: col, TierIndex: 0,
	})
	if err != nil {
		t.Fatalf("web: %v", err)
	}
	defer func() { _ = web.Close() }()

	// An untraced request parks in the db tier's single worker slot.
	holder := make(chan error, 1)
	go func() {
		resp, err := http.Get(db.URL() + "/")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			err = resp.Body.Close()
		}
		holder <- err
	}()
	waitInflight(t, db, 1)

	cl := newTracedClient(t, col, 2, 250*time.Millisecond)
	res := cl.Get(context.Background(), web.URL()+"/")
	if !res.OK {
		t.Fatalf("retried request should succeed once the slot frees: %+v", res)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (shed then served)", res.Attempts)
	}
	if err := <-holder; err != nil {
		t.Fatalf("holder request: %v", err)
	}

	rep := col.Report()
	if rep.Open != 0 || rep.Orphans != 0 {
		t.Fatalf("open=%d orphans=%d, want zero", rep.Open, rep.Orphans)
	}
	if len(rep.Attributions) != 1 {
		t.Fatalf("closed traces = %d, want 1", len(rep.Attributions))
	}
	a := rep.Attributions[0]
	if a.TraceID != res.TraceID {
		t.Errorf("attribution trace %d, client trace %d", a.TraceID, res.TraceID)
	}
	if a.Drops != 1 || a.Attempts != 2 || a.Abandoned {
		t.Errorf("want one drop over two attempts, got %+v", a)
	}
	if a.RetransWait <= 0 {
		t.Errorf("retransWait = %v, want > 0 (shed→retry gap)", a.RetransWait)
	}
	// The drop event itself must sit at the db tier.
	dropTier := -100
	for _, e := range rep.Events {
		if e.Kind == live.KindDrop {
			dropTier = int(e.Tier)
		}
	}
	if dropTier != 2 {
		t.Errorf("drop recorded at tier %d, want 2 (db)", dropTier)
	}
}

// TestTraceRejectAtWeb fills the web tier's pool so a traced request is
// refused at the front door and the client gives up: the trace closes
// abandoned with the drop at tier 0 and no spans deeper in the chain.
func TestTraceRejectAtWeb(t *testing.T) {
	col := newChainCollector(t)
	web, err := StartTier("127.0.0.1:0", TierConfig{
		Name: "web", Workers: 1, Service: 150 * time.Millisecond,
		Trace: col, TierIndex: 0,
	})
	if err != nil {
		t.Fatalf("web: %v", err)
	}
	defer func() { _ = web.Close() }()

	holder := make(chan error, 1)
	go func() {
		resp, err := http.Get(web.URL() + "/")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			err = resp.Body.Close()
		}
		holder <- err
	}()
	waitInflight(t, web, 1)

	cl := newTracedClient(t, col, 1, 0)
	res := cl.Get(context.Background(), web.URL()+"/")
	if res.OK || res.Status != http.StatusServiceUnavailable {
		t.Fatalf("want a 503 rejection, got %+v", res)
	}
	if err := <-holder; err != nil {
		t.Fatalf("holder request: %v", err)
	}

	rep := col.Report()
	if rep.Open != 0 || rep.Orphans != 0 {
		t.Fatalf("open=%d orphans=%d, want zero", rep.Open, rep.Orphans)
	}
	if len(rep.Attributions) != 1 {
		t.Fatalf("closed traces = %d, want 1", len(rep.Attributions))
	}
	a := rep.Attributions[0]
	if !a.Abandoned || a.Drops != 1 || a.Attempts != 1 {
		t.Errorf("want abandoned after one front-door drop, got %+v", a)
	}
	for tier := range TierNames() {
		if a.Queue[tier] != 0 || a.Service[tier] != 0 {
			t.Errorf("tier %d has queue/service %v/%v on a rejected request", tier, a.Queue[tier], a.Service[tier])
		}
	}
	for _, e := range rep.Events {
		if int(e.Tier) > 0 {
			t.Errorf("event %v leaked past the web tier (tier %d)", e.Kind, e.Tier)
		}
	}
}

// TestCountersEndpoint checks the plaintext aggregate view: served and
// rejected totals move, and the format stays one "name value" per line.
func TestCountersEndpoint(t *testing.T) {
	tier, err := StartTier("127.0.0.1:0", TierConfig{Name: "solo", Workers: 2, Service: 0})
	if err != nil {
		t.Fatalf("StartTier: %v", err)
	}
	defer func() { _ = tier.Close() }()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(tier.URL() + "/")
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	resp, err := http.Get(tier.URL() + "/debug/counters")
	if err != nil {
		t.Fatalf("counters: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("counters line %q is not \"name value\"", line)
		}
		got[f[0]] = f[1]
	}
	if got["victimd.tier"] != "solo" || got["victimd.served"] != "3" || got["victimd.rejected"] != "0" {
		t.Errorf("counters = %v", got)
	}
	for _, key := range []string{"victimd.workers", "victimd.inflight", "victimd.queue_wait_ns_total", "victimd.service_ns_total", "victimd.slowdown_permille"} {
		if _, ok := got[key]; !ok {
			t.Errorf("counters missing %s", key)
		}
	}

	// The windowed feature lines appear once a window completes. On a
	// fresh tier, an observation backdated by 1.5 windows anchors the
	// epoch in the past, so the counters read finds window 0 complete.
	feat, err := StartTier("127.0.0.1:0", TierConfig{Name: "feat", Workers: 2, Service: 0})
	if err != nil {
		t.Fatalf("StartTier: %v", err)
	}
	defer func() { _ = feat.Close() }()
	feat.features.Observe(time.Now().Add(-3*featureWindow/2),
		150*time.Millisecond, 100*time.Millisecond, 50*time.Millisecond, 0, 2, 1)
	resp, err = http.Get(feat.URL() + "/debug/counters")
	if err != nil {
		t.Fatalf("counters: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	got = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("counters line %q is not \"name value\"", line)
		}
		got[f[0]] = f[1]
	}
	if got["victimd.feat_count"] != "1" || got["victimd.feat_drops"] != "1" || got["victimd.feat_tail_over"] != "1" {
		t.Errorf("feature counters = %v", got)
	}
	if got["victimd.feat_drop_rate"] != "0.5000" || got["victimd.feat_mean_rt_us"] != "150000" {
		t.Errorf("feature rates = %v", got)
	}
	for _, key := range []string{"victimd.feat_window_ms", "victimd.feat_window_start_ms", "victimd.feat_attempts", "victimd.feat_queue_share", "victimd.feat_service_share"} {
		if _, ok := got[key]; !ok {
			t.Errorf("counters missing %s", key)
		}
	}
}

// testTracker builds the feature tracker a StartTier-constructed tier
// would carry, for tests that assemble a Tier literal directly.
func testTracker(t testing.TB) *live.WindowTracker {
	t.Helper()
	tracker, err := live.NewWindowTracker(featureWindow, featureTailOver)
	if err != nil {
		t.Fatal(err)
	}
	return tracker
}

// TestHandleZeroAllocOverhead pins the overhead contract on the request
// hot path: the handler allocates nothing per request with tracing
// disabled, and tracing an in-capacity request adds no allocations
// either (the collector's claim-once log is pre-sized).
func TestHandleZeroAllocOverhead(t *testing.T) {
	run := func(name string, tier *Tier, req *http.Request) {
		rec := httptest.NewRecorder()
		if allocs := testing.AllocsPerRun(5000, func() {
			rec.Body.Reset()
			tier.handle(rec, req)
		}); allocs != 0 {
			t.Errorf("%s: handle allocates %v objects/request, want 0", name, allocs)
		}
	}
	plain := &Tier{cfg: TierConfig{Name: "plain", Workers: 2}, okBody: []byte("plain ok\n"), slots: make(chan struct{}, 2), features: testTracker(t)}
	plain.slowdown.Store(1000)
	run("disabled", plain, httptest.NewRequest(http.MethodGet, "/", nil))

	col, err := live.New(live.Config{Tiers: []string{"traced"}, Events: 1 << 15})
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	traced := &Tier{cfg: TierConfig{Name: "traced", Workers: 2, Trace: col}, okBody: []byte("traced ok\n"), slots: make(chan struct{}, 2), features: testTracker(t)}
	traced.slowdown.Store(1000)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(live.TraceHeader, live.FormatTraceHeader(col.NextTraceID(), 0))
	run("enabled", traced, req)
}

func BenchmarkHandleTraced(b *testing.B) {
	col, err := live.New(live.Config{Tiers: []string{"bench"}, Events: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	tier := &Tier{cfg: TierConfig{Name: "bench", Workers: 4, Trace: col}, okBody: []byte("bench ok\n"), slots: make(chan struct{}, 4), features: testTracker(b)}
	tier.slowdown.Store(1000)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(live.TraceHeader, live.FormatTraceHeader(col.NextTraceID(), 0))
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		tier.handle(rec, req)
	}
}
