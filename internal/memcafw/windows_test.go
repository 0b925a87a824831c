package memcafw

import (
	"context"
	"testing"
	"time"

	"memca/internal/telemetry/live"
)

// TestBurstWindowsAlignment builds a backend with hand-placed samples and
// reports (no sockets) and checks each burst window cuts exactly the
// probe samples that fall inside the padded burst span.
func TestBurstWindowsAlignment(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	b := &Backend{cfg: BackendConfig{Window: 3}}
	b.samples = []ProbeSample{
		{At: at(0), RT: 5 * time.Millisecond},
		{At: at(100), RT: 80 * time.Millisecond}, // inside burst 1
		{At: at(150), RT: 120 * time.Millisecond},
		{At: at(400), RT: 6 * time.Millisecond},
		{At: at(900), RT: 200 * time.Millisecond}, // inside burst 2's drain pad
	}
	// Burst 1 ran [50ms, 150ms] (exec 100ms, received at its end);
	// burst 2 ran [800ms, 850ms].
	b.reports = []TimedReport{
		{BurstReport: BurstReport{Burst: 1, ExecMs: 100}, At: at(150)},
		{BurstReport: BurstReport{Burst: 2, ExecMs: 50}, At: at(850)},
	}

	wins := b.BurstWindows(60 * time.Millisecond)
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	// Burst 1 window: [-10ms, 210ms] → samples at 0, 100, 150.
	if got := len(wins[0].Samples); got != 3 {
		t.Errorf("burst 1 captured %d samples, want 3: %+v", got, wins[0].Samples)
	}
	if wins[0].MaxRT() != 120*time.Millisecond {
		t.Errorf("burst 1 max RT %v, want 120ms", wins[0].MaxRT())
	}
	// Burst 2 window: [740ms, 910ms] → only the drain-phase spike at 900.
	if got := len(wins[1].Samples); got != 1 {
		t.Fatalf("burst 2 captured %d samples, want 1: %+v", got, wins[1].Samples)
	}
	if wins[1].Samples[0].RT != 200*time.Millisecond {
		t.Errorf("burst 2 sample RT %v, want the 200ms drain spike", wins[1].Samples[0].RT)
	}
	if wins[1].Start != at(740) || wins[1].End != at(910) {
		t.Errorf("burst 2 window [%v, %v], want [740ms, 910ms]", wins[1].Start, wins[1].End)
	}
}

// TestTailRTUsesRecentWindow: the percentile must read only the last
// cfg.Window samples even though the full history is retained.
func TestTailRTUsesRecentWindow(t *testing.T) {
	b := &Backend{cfg: BackendConfig{Window: 2}}
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, rt := range []time.Duration{time.Second, time.Millisecond, 2 * time.Millisecond} {
		b.samples = append(b.samples, ProbeSample{At: now, RT: rt})
	}
	if got := b.TailRT(100); got != 2*time.Millisecond {
		t.Errorf("TailRT(100) = %v, want 2ms (1s sample aged out of the window)", got)
	}
	if got := len(b.samples); got != 3 {
		t.Errorf("history truncated to %d, want full 3", got)
	}
}

// TestTracedHTTPProbe checks the probe participates in the trace: a
// served probe closes its trace complete, a timed-out one abandoned, and
// both report a latency.
func TestTracedHTTPProbe(t *testing.T) {
	col, err := live.New(live.Config{Events: 256})
	if err != nil {
		t.Fatal(err)
	}
	fast := newSlowServer(t, 5*time.Millisecond)
	probe := HTTPProbe(fast, time.Second, col)
	if rt, err := probe(context.Background()); err != nil || rt < 5*time.Millisecond {
		t.Fatalf("traced probe rt=%v err=%v", rt, err)
	}
	slow := newSlowServer(t, 300*time.Millisecond)
	probe = HTTPProbe(slow, 30*time.Millisecond, col)
	if rt, err := probe(context.Background()); err != nil || rt != 30*time.Millisecond {
		t.Fatalf("timed-out traced probe rt=%v err=%v, want 30ms", rt, err)
	}

	rep := col.Report()
	if rep.Open != 0 {
		t.Errorf("open traces = %d, want 0 (every probe closes its trace)", rep.Open)
	}
	if len(rep.Attributions) != 2 {
		t.Fatalf("attributions = %d, want 2", len(rep.Attributions))
	}
	completed, abandoned := 0, 0
	for _, a := range rep.Attributions {
		if a.Abandoned {
			abandoned++
		} else {
			completed++
		}
	}
	if completed != 1 || abandoned != 1 {
		t.Errorf("completed/abandoned = %d/%d, want 1/1", completed, abandoned)
	}
}
