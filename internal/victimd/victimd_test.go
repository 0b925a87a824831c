package victimd

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memca/internal/spec"
	"memca/internal/telemetry/live"
)

func startTestSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultSystem()
	// Keep service times tiny so tests are fast.
	tiers := cfg.System.Tiers
	tiers[0].Service = time.Microsecond
	tiers[1].Service = time.Microsecond
	tiers[2].Service = time.Millisecond
	s, err := StartSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Logf("closing system: %v", err)
		}
	})
	return s
}

func TestTierConfigValidation(t *testing.T) {
	if _, err := StartTier("127.0.0.1:0", TierConfig{Name: "", Workers: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := StartTier("127.0.0.1:0", TierConfig{Name: "x", Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := StartTier("127.0.0.1:0", TierConfig{Name: "x", Workers: 1, Service: -time.Second}); err == nil {
		t.Error("negative service accepted")
	}
}

// TestStartSystemRefusesSpecs holds StartSystem to the specs a live chain
// can run: each refusal names what it refuses.
func TestStartSystemRefusesSpecs(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(sys *spec.System)
		want   string
	}{
		{"ascending pools", func(sys *spec.System) {
			for i, n := range []int{2, 4, 8} {
				sys.Tiers[i].Threads, sys.Tiers[i].Servers = n, n
			}
		}, "condition 1"},
		{"servers below threads", func(sys *spec.System) { sys.Tiers[1].Servers = 2 }, `"app" Servers 2 must equal Threads 16`},
		{"replicas", func(sys *spec.System) { sys.Tiers[2].Replicas = 2 }, `"db" Replicas 2`},
		{"demand factor", func(sys *spec.System) { sys.Tiers[2].DemandFactor = 1.5 }, `"db" DemandFactor 1.5`},
		{"two tiers", func(sys *spec.System) { sys.Tiers = sys.Tiers[:2] }, "3 tiers, the spec 2"},
		{"zero service", func(sys *spec.System) { sys.Tiers[0].Service = 0 }, `"web" Service must be positive`},
	} {
		cfg := DefaultSystem()
		c.mutate(&cfg.System)
		s, err := StartSystem(cfg)
		if err == nil {
			_ = s.Close()
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestDefaultSystem pins the default live chain: 32/16/8 workers with
// 200 µs, 500 µs and 2 ms of service, labelled by TierNames.
func TestDefaultSystem(t *testing.T) {
	tiers := DefaultSystem().System.Tiers
	want := []struct {
		name    string
		workers int
		service time.Duration
	}{
		{"web", 32, 200 * time.Microsecond},
		{"app", 16, 500 * time.Microsecond},
		{"db", 8, 2 * time.Millisecond},
	}
	names := TierNames()
	if len(tiers) != len(want) || len(names) != len(want) {
		t.Fatalf("%d tiers and %d names, want %d", len(tiers), len(names), len(want))
	}
	for i, w := range want {
		got := tiers[i]
		if got.Name != w.name || names[i] != w.name || got.Threads != w.workers || got.Servers != w.workers || got.Service != w.service {
			t.Errorf("tier %d = %+v named %q, want %s with %d workers and %v", i, got, names[i], w.name, w.workers, w.service)
		}
	}
	if err := checkSystem(DefaultSystem().System); err != nil {
		t.Errorf("default system refused: %v", err)
	}
}

func TestEndToEndRequestFlows(t *testing.T) {
	s := startTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rt, status, err := probe(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if rt < time.Millisecond {
		t.Errorf("RT %v below the db service time", rt)
	}
}

func TestCapacityControlSlowsDB(t *testing.T) {
	s := startTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	fast, _, err := probe(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the db tier to 5% via the HTTP control endpoint, exactly
	// as an attack driver would.
	resp, err := http.Get(s.DB.URL() + "/control/capacity?multiplier=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control endpoint status %d", resp.StatusCode)
	}
	slow, _, err := probe(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	// The db service stretches 1ms -> 20ms; allow generous slack for
	// HTTP overhead in the fast path.
	if slow-fast < 10*time.Millisecond {
		t.Errorf("degradation had little effect: %v -> %v", fast, slow)
	}
	// Restore.
	if err := s.DB.SetCapacityMultiplier(1); err != nil {
		t.Fatal(err)
	}
	restored, _, err := probe(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if restored > 5*fast {
		t.Errorf("capacity did not recover: %v vs %v", restored, fast)
	}
}

func TestCapacityControlRejectsBadInput(t *testing.T) {
	s := startTestSystem(t)
	for _, q := range []string{"", "multiplier=abc", "multiplier=0", "multiplier=2"} {
		resp, err := http.Get(s.DB.URL() + "/control/capacity?" + q)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestBackPressurePropagatesToWebTier(t *testing.T) {
	// Stall the db tier hard and flood the web tier: once every db and
	// app worker blocks, the web tier's pool exhausts and sheds load —
	// the cross-tier overflow of the paper, on real sockets.
	s := startTestSystem(t)
	if err := s.DB.SetCapacityMultiplier(0.001); err != nil { // 1ms -> 1s per request
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var rejections atomic.Int64
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(s.Web.URL() + "/")
			if err != nil {
				return
			}
			if resp.StatusCode != http.StatusOK {
				rejections.Add(1)
			}
			_ = resp.Body.Close()
		}()
	}
	wg.Wait()
	if rejections.Load() == 0 {
		t.Error("no load shedding at the web tier under a stalled db")
	}
	if s.Web.Rejected() == 0 && rejections.Load() == 0 {
		t.Error("rejection accounting missing")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := startTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := probe(ctx, s); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(s.DB.URL() + "/debug/counters")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"victimd.tier db\n", "victimd.served 1\n"} {
		if !contains(body, want) {
			t.Errorf("stats %q missing %q", body, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// probe measures one end-to-end request against the web tier and returns
// its round trip and HTTP status.
func probe(ctx context.Context, s *System) (time.Duration, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Web.URL()+"/", nil)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); err != nil {
		return 0, 0, err
	}
	return time.Since(start), resp.StatusCode, nil
}

// TestServiceTimeFidelity pins the tier's service wait to its configured
// length: a 200 µs service measured as a traced span. A time.After wait
// takes about 1.1 ms here, since an idle Go process sleeps in the
// netpoller with a millisecond timeout.
func TestServiceTimeFidelity(t *testing.T) {
	const service = 200 * time.Microsecond
	col, err := live.New(live.Config{Tiers: []string{"svc"}, Events: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := StartTier("127.0.0.1:0", TierConfig{Name: "svc", Workers: 2, Service: service, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tier.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	cl, err := live.NewClient(live.ClientConfig{Collector: col, HTTP: &http.Client{Transport: transport, Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r := cl.Get(context.Background(), tier.URL()+"/"); !r.OK {
			t.Fatalf("request %d: status %d, err %v", i, r.Status, r.Err)
		}
	}
	rep := col.Report()
	spans := make([]time.Duration, 0, len(rep.Attributions))
	for _, a := range rep.Attributions {
		if a.Service[0] < service {
			t.Fatalf("trace %d: service span %v shorter than the configured %v", a.TraceID, a.Service[0], service)
		}
		spans = append(spans, a.Service[0])
	}
	if len(spans) != 100 {
		t.Fatalf("%d traced service spans, want 100", len(spans))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })
	if p50 := spans[len(spans)/2]; p50 >= 600*time.Microsecond {
		t.Errorf("median service span %v for a %v service, want < 600µs", p50, service)
	}
}

// TestStartCloseNoFDLeak checks that Close releases everything a chain
// opens: listeners, connections and every worker's timer.
func TestStartCloseNoFDLeak(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	openFiles := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	cycle := func() {
		s := startTestSystem(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, status, err := probe(ctx, s); err != nil || status != http.StatusOK {
			t.Fatalf("probe: status %d, err %v", status, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	cycle() // the runtime's own poller and lazily opened files
	baseline := openFiles()
	for i := 0; i < 20; i++ {
		cycle()
	}
	// Closed connections release their descriptors once their reading
	// goroutines notice, so wait for the count to settle.
	deadline := time.Now().Add(5 * time.Second)
	n := openFiles()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = openFiles()
	}
	if n > baseline {
		t.Errorf("%d open files after 20 start/close cycles, baseline %d", n, baseline)
	}
}

// TestBackendConnectionsReused drives waves of concurrent downstream calls
// through an app tier. Every wave needs as many connections as the tier
// has workers; the first wave opens them, and later waves must find them
// all idle rather than dial again in the middle of a back-pressure
// episode.
func TestBackendConnectionsReused(t *testing.T) {
	const workers, waves = 8, 4
	arrived := make(chan struct{}, workers)
	release := make(chan struct{}, workers)
	var dials atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		arrived <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()
	app, err := StartTier("127.0.0.1:0", TierConfig{Name: "app", Workers: workers, Backend: backend.URL + "/", AcquireTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	var afterFirst int64
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		var failed atomic.Int64
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(app.URL() + "/")
				if err != nil {
					failed.Add(1)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
				if err := resp.Body.Close(); err != nil {
					failed.Add(1)
				}
			}()
		}
		// Hold the wave until every worker is in its downstream call.
		for i := 0; i < workers; i++ {
			<-arrived
		}
		for i := 0; i < workers; i++ {
			release <- struct{}{}
		}
		wg.Wait()
		if failed.Load() != 0 {
			t.Fatalf("wave %d: %d requests failed", wave, failed.Load())
		}
		if wave == 0 {
			afterFirst = dials.Load()
		}
	}
	if afterFirst != workers {
		t.Errorf("first wave opened %d backend connections, want %d", afterFirst, workers)
	}
	if extra := dials.Load() - afterFirst; extra != 0 {
		t.Errorf("waves 2-%d opened %d new backend connections, want 0", waves, extra)
	}
}

// FuzzCapacityQuery feeds any multiplier string to /control/capacity. The
// handler answers 200 or 400, and a 200 never leaves the tier serving
// faster than its configured service time: a multiplier whose stretched
// service overflows time.Duration (at 2 ms, anything below about 2e-13)
// must be refused, not wrapped to a zero or negative wait.
func FuzzCapacityQuery(f *testing.F) {
	for _, s := range []string{"1", "0.05", "1e-12", "1e-13", "1e-300", "5e-324", "0", "-0", "2", "NaN", "Inf", "abc", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, multiplier string) {
		tier := &Tier{cfg: TierConfig{Name: "db", Service: 2 * time.Millisecond}}
		tier.slowdown.Store(1000)
		req := httptest.NewRequest(http.MethodGet, "/control/capacity?"+url.Values{"multiplier": {multiplier}}.Encode(), nil)
		rec := httptest.NewRecorder()
		tier.handleCapacity(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if d := tier.serviceTime(); d < tier.cfg.Service {
				t.Fatalf("multiplier %q accepted: service wait %v, below the configured %v", multiplier, d, tier.cfg.Service)
			}
		case http.StatusBadRequest:
			if d := tier.serviceTime(); d != tier.cfg.Service {
				t.Fatalf("multiplier %q refused but the service wait moved to %v", multiplier, d)
			}
		default:
			t.Fatalf("multiplier %q: status %d, want 200 or 400", multiplier, rec.Code)
		}
	})
}
