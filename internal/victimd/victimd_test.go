package victimd

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startTestSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultSystem()
	// Keep service times tiny so tests are fast.
	cfg.WebService = 0
	cfg.AppService = 0
	cfg.DBService = time.Millisecond
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
	if _, err := StartSystem(SystemConfig{WebWorkers: 2, AppWorkers: 4, DBWorkers: 8}); err == nil {
		t.Error("ascending pools accepted")
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
