package memcafw

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
)

func fastParams() ParamsMsg {
	return ParamsMsg{Intensity: 1, BurstMs: 5, IntervalMs: 20}
}

func TestEnvelopeValidate(t *testing.T) {
	good := []Envelope{
		{Type: MsgHello, Hello: &Hello{FEID: "fe1", Program: "simulated"}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 0.5, BurstMs: 100, IntervalMs: 2000}},
		{Type: MsgBurstReport, Report: &BurstReport{Burst: 1, ExecMs: 100}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 1, BurstMs: maxMs, IntervalMs: maxMs}},
		{Type: MsgBurstReport, Report: &BurstReport{Burst: 1, ExecMs: maxMs}},
		{Type: MsgStop},
	}
	for i, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("valid envelope %d rejected: %v", i, err)
		}
	}
	bad := []Envelope{
		{Type: MsgHello},
		{Type: MsgSetParams},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 0, BurstMs: 100, IntervalMs: 2000}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 1.5, BurstMs: 100, IntervalMs: 2000}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 0.5, BurstMs: 0, IntervalMs: 2000}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 0.5, BurstMs: 3000, IntervalMs: 2000}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 1, BurstMs: 1, IntervalMs: maxMs + 1}},
		{Type: MsgSetParams, Params: &ParamsMsg{Intensity: 1, BurstMs: maxMs + 1, IntervalMs: maxMs + 1}},
		{Type: MsgBurstReport},
		{Type: MsgBurstReport, Report: &BurstReport{Burst: 1, ExecMs: -1}},
		{Type: MsgBurstReport, Report: &BurstReport{Burst: 1, ExecMs: maxMs + 1}},
		{Type: "bogus"},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad envelope %d accepted", i)
		}
	}
}

func TestSimulatedProgram(t *testing.T) {
	p := SimulatedProgram{}
	res, err := p.Execute(context.Background(), 0.7, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 20*time.Millisecond || res.Elapsed > 100*time.Millisecond {
		t.Errorf("elapsed %v, want ~20ms", res.Elapsed)
	}
	if res.ResourceShare != 0.7 {
		t.Errorf("share %v, want 0.7", res.ResourceShare)
	}
	if _, err := p.Execute(context.Background(), 0, time.Millisecond); err == nil {
		t.Error("zero intensity accepted")
	}
	if _, err := p.Execute(context.Background(), 1, 0); err == nil {
		t.Error("zero length accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Execute(ctx, 1, time.Hour); err == nil {
		t.Error("canceled context not honored")
	}
}

func TestStreamProgramProducesLoad(t *testing.T) {
	p, err := NewStreamProgram(4, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	}()
	res, err := p.Execute(context.Background(), 1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResourceShare <= 0 || res.ResourceShare > 1 {
		t.Errorf("resource share %v out of (0,1]", res.ResourceShare)
	}
	if res.Elapsed < 30*time.Millisecond {
		t.Errorf("elapsed %v below burst length", res.Elapsed)
	}
}

func TestStreamProgramValidation(t *testing.T) {
	if _, err := NewStreamProgram(0, 100); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewStreamProgram(1, 0); err == nil {
		t.Error("zero peak accepted")
	}
}

func TestFrontendValidation(t *testing.T) {
	if _, err := NewFrontend(FrontendConfig{Listen: "127.0.0.1:0", Program: SimulatedProgram{}, Initial: fastParams()}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewFrontend(FrontendConfig{ID: "fe", Listen: "127.0.0.1:0", Initial: fastParams()}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := NewFrontend(FrontendConfig{ID: "fe", Listen: "127.0.0.1:0", Program: SimulatedProgram{}}); err == nil {
		t.Error("zero params accepted")
	}
}

// startFE builds and serves a frontend for tests, returning a cleanup.
func startFE(t *testing.T) *Frontend {
	t.Helper()
	fe, err := NewFrontend(FrontendConfig{
		ID:      "fe-test",
		Listen:  "127.0.0.1:0",
		Program: SimulatedProgram{},
		Initial: fastParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fe.Serve(); err != nil {
			t.Errorf("FE serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := fe.Close(); err != nil && !errors.Is(err, context.Canceled) {
			t.Logf("FE close: %v", err)
		}
		wg.Wait()
	})
	return fe
}

func TestFEBEEndToEnd(t *testing.T) {
	fe := startFE(t)

	// Synthetic target: tail RT grows with attack duty, read from the
	// FE's current parameters — a closed loop over real TCP.
	probe := func(ctx context.Context) (time.Duration, error) {
		p := fe.Params()
		duty := float64(p.BurstMs) / float64(p.IntervalMs) * p.Intensity
		return time.Duration(4 * duty * float64(time.Second) / 4), nil // up to 1s at duty 1
	}
	be, err := NewBackend(BackendConfig{
		Config: control.Config{
			Goal: control.Goal{Percentile: 95, TargetRT: 200 * time.Millisecond, MaxMillibottleneck: time.Second},
			Bounds: control.Bounds{
				MinBurst: 2 * time.Millisecond, MaxBurst: 18 * time.Millisecond,
				MinInterval: 20 * time.Millisecond, MaxInterval: 100 * time.Millisecond,
				MinIntensity: 0.1,
			},
			ProbePeriod:   5 * time.Millisecond,
			Window:        20,
			DecisionEvery: 25 * time.Millisecond,
		},
		FEAddr:  fe.Addr(),
		Probe:   probe,
		Initial: attack.Params{Intensity: 0.5, BurstLength: 5 * time.Millisecond, Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if be.FEInfo().FEID != "fe-test" || be.FEInfo().Program != "simulated" {
		t.Errorf("hello = %+v", be.FEInfo())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := be.Run(ctx); err != nil {
		t.Fatalf("BE run: %v", err)
	}

	if fe.Bursts() < 10 {
		t.Errorf("FE executed only %d bursts", fe.Bursts())
	}
	if len(be.Reports()) == 0 {
		t.Error("BE received no burst reports")
	}
	// Initial duty = 0.125 → tail 125ms < 200ms goal: the commander must
	// have escalated and the FE must have received the retune.
	final := fe.Params()
	initialDuty := 0.5 * 5.0 / 20.0
	finalDuty := final.Intensity * float64(final.BurstMs) / float64(final.IntervalMs)
	if finalDuty <= initialDuty {
		t.Errorf("attack pressure did not grow over TCP: %v -> %v", initialDuty, finalDuty)
	}
}

func TestBackendValidation(t *testing.T) {
	fe := startFE(t)
	ok := BackendConfig{
		Config:  liveConfig(time.Second),
		FEAddr:  fe.Addr(),
		Probe:   func(context.Context) (time.Duration, error) { return 0, nil },
		Initial: attack.Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second},
	}
	bad := ok
	bad.Probe = nil
	if _, err := NewBackend(bad); err == nil {
		t.Error("nil probe accepted")
	}
	bad = ok
	bad.Goal = control.Goal{}
	if _, err := NewBackend(bad); err == nil {
		t.Error("zero goal accepted")
	}
	bad = ok
	bad.Window = 0
	if _, err := NewBackend(bad); err == nil {
		t.Error("zero window accepted")
	}
	bad = ok
	bad.FEAddr = "127.0.0.1:1" // nothing listens there
	if _, err := NewBackend(bad); err == nil {
		t.Error("dead FE address accepted")
	}
	b, err := NewBackend(ok)
	if err != nil {
		t.Fatalf("valid backend rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Run(ctx); err != nil {
		t.Errorf("short run failed: %v", err)
	}
}

// liveConfig is the live loop's configuration in these tests: the
// paper's goal over a 30-probe window, decided every 5 s.
func liveConfig(probeEvery time.Duration) control.Config {
	cfg := control.DefaultConfig()
	cfg.ProbePeriod, cfg.Window, cfg.DecisionEvery = probeEvery, 30, 5*time.Second
	return cfg
}

// TestFELostConnectionSurfaces: when the FE drops, Run reports it, and
// returns promptly even with a probe in flight that would otherwise run
// until its own timeout: the probe's context is Run's.
func TestFELostConnectionSurfaces(t *testing.T) {
	fe := startFE(t)
	probing := make(chan struct{}, 1)
	be, err := NewBackend(BackendConfig{
		Config: liveConfig(5 * time.Millisecond),
		FEAddr: fe.Addr(),
		Probe: func(ctx context.Context) (time.Duration, error) {
			select {
			case probing <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		},
		Initial: attack.Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	closed := make(chan time.Time, 1)
	go func() {
		<-probing
		closed <- time.Now()
		_ = fe.Close()
	}()
	if err := be.Run(ctx); err == nil {
		t.Error("lost FE connection not reported")
	}
	returned := time.Now()
	select {
	case at := <-closed:
		if d := returned.Sub(at); d > time.Second {
			t.Errorf("Run returned %v after the FE closed, want under 1s", d)
		}
	default:
		t.Fatal("Run returned before a probe was in flight")
	}
}

func TestHTTPProbeAgainstLocalServer(t *testing.T) {
	// Serve a tiny delayed endpoint and verify the probe times it.
	srv := newSlowServer(t, 20*time.Millisecond)
	probe := HTTPProbe(srv, time.Second, nil)
	rt, err := probe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rt < 20*time.Millisecond || rt > 500*time.Millisecond {
		t.Errorf("probe RT %v, want >= 20ms", rt)
	}
	// Timeout path: the probe reports the timeout as the latency.
	slow := newSlowServer(t, 300*time.Millisecond)
	probe = HTTPProbe(slow, 50*time.Millisecond, nil)
	rt, err = probe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rt != 50*time.Millisecond {
		t.Errorf("timed-out probe RT %v, want 50ms", rt)
	}
}

// FuzzRecv feeds arbitrary bytes, one envelope per line, through the
// FE/BE link's reader. recv never panics, and every envelope it returns
// passes Validate and converts to non-negative durations, so neither
// daemon can read a wrapped-negative burst, interval or execution time.
func FuzzRecv(f *testing.F) {
	for _, s := range []string{
		`{"type":"hello","hello":{"fe_id":"fe1","program":"simulated"}}`,
		`{"type":"set_params","params":{"intensity":0.5,"burst_ms":500,"interval_ms":2000}}`,
		`{"type":"burst_report","report":{"burst":1,"exec_ms":480,"resource_share":0.9}}` + "\n" + `{"type":"stop"}`,
		`{"type":"set_params","params":{"intensity":1,"burst_ms":9223372036855,"interval_ms":9223372036855}}`,
		`{"type":"burst_report","report":{"burst":1,"exec_ms":9223372036855}}`,
		`{"type":"burst_report","report":{"burst":1,"exec_ms":-1}}`,
		`{"type":"set_params"}` + "\r\n" + `not json`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = io.WriteString(client, data)
			_ = client.Close()
		}()
		c := newConn(server)
		for i := 0; i <= strings.Count(data, "\n"); i++ {
			e, err := c.recv()
			if err != nil {
				continue
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("recv returned an invalid envelope %+v: %v", e, err)
			}
			switch e.Type {
			case MsgSetParams:
				if time.Duration(e.Params.BurstMs)*time.Millisecond <= 0 || time.Duration(e.Params.IntervalMs)*time.Millisecond <= 0 {
					t.Fatalf("recv returned params %+v that read as non-positive durations", *e.Params)
				}
			case MsgBurstReport:
				if time.Duration(e.Report.ExecMs)*time.Millisecond < 0 {
					t.Fatalf("recv returned report %+v that reads as a negative duration", *e.Report)
				}
			}
		}
		_ = c.close()
		<-done
	})
}
