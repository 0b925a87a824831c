package memcafw

import (
	"context"
	"testing"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/stats"
	"memca/internal/telemetry/live"
)

// TestBurstWindowsAlignment builds a backend with hand-placed samples and
// reports (no sockets) and checks each burst window cuts exactly the
// probe samples that fall inside the padded burst span.
func TestBurstWindowsAlignment(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	b := &Backend{}
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

// TestBurstWindowsLongestExec: a report of the longest execution time a
// message may carry, padded as memca-demo pads it, still yields a window
// that starts no later than the report and ends pad after it.
func TestBurstWindowsLongestExec(t *testing.T) {
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	pad := 500 * time.Millisecond
	b := &Backend{reports: []TimedReport{{BurstReport: BurstReport{Burst: 1, ExecMs: maxMs}, At: at}}}
	wins := b.BurstWindows(pad)
	if len(wins) != 1 {
		t.Fatalf("windows = %d, want 1", len(wins))
	}
	if w := wins[0]; w.Start.After(at) || !w.End.Equal(at.Add(pad)) {
		t.Errorf("window [%v, %v] for a report at %v, want Start <= At and End = At+%v", w.Start, w.End, at, pad)
	}
}

// newReplayBackend builds a Backend with its feedback loop and no FE
// connection, for driving the record and decide path directly.
func newReplayBackend(t *testing.T, cfg control.Config, initial attack.Params) *Backend {
	t.Helper()
	loop, err := control.NewLoop(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	return &Backend{cfg: BackendConfig{Config: cfg, Initial: initial}, loop: loop}
}

// TestTailRTUsesRecentWindow: a decision reads the goal percentile (by
// stats.NearestRank's rank) of only the last Window probes, whichever
// way the ring has wrapped, an empty window reads 0, and the Backend
// keeps every probe in its history all the same.
func TestTailRTUsesRecentWindow(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name   string
		window int
		pct    float64
		rts    []time.Duration
		want   time.Duration
	}{
		{"empty", 4, 95, nil, 0},
		{"one probe", 4, 95, ms(7), 7 * time.Millisecond},
		{"partly filled", 4, 50, ms(30, 10, 20), 20 * time.Millisecond},
		{"exactly full", 3, 95, ms(5, 1, 9), 5 * time.Millisecond},
		// The 1s probe has aged out: with it the p95 would read 2ms.
		{"oldest evicted", 2, 95, ms(1000, 1, 2), time.Millisecond},
		// Ring wrapped twice, cursor mid-ring: only 40..44 are read.
		{"wrapped twice", 5, 80, ms(90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 40, 41, 42, 43, 44), 43 * time.Millisecond},
		{"percentile rank", 10, 95, ms(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 9 * time.Millisecond},
	}
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := liveConfig(time.Second)
			cfg.Window, cfg.Goal.Percentile = c.window, c.pct
			b := newReplayBackend(t, cfg, attack.Params{Intensity: 1, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second})
			for i, rt := range c.rts {
				b.record(base.Add(time.Duration(i)*time.Second), rt)
			}
			if got := b.TailRT(); got != c.want {
				t.Errorf("TailRT = %v, want %v", got, c.want)
			}
			recent := c.rts[max(0, len(c.rts)-c.window):]
			if got, ref := b.TailRT(), stats.NearestRank(recent, c.pct/100); got != ref {
				t.Errorf("TailRT = %v, stats.NearestRank of the last %d probes = %v", got, c.window, ref)
			}
			hist := b.ProbeSamples()
			if len(hist) != len(c.rts) {
				t.Fatalf("history holds %d probes, want all %d", len(hist), len(c.rts))
			}
			for i, s := range hist {
				if s.RT != c.rts[i] || !s.At.Equal(base.Add(time.Duration(i)*time.Second)) {
					t.Errorf("history[%d] = %+v, want RT %v", i, s, c.rts[i])
				}
			}
		})
	}
}

// TestBackendDecideZeroAllocs pins the live decision's allocation
// contract: with a full window and FE reports on hand, a decision
// allocates nothing.
func TestBackendDecideZeroAllocs(t *testing.T) {
	cfg := liveConfig(time.Second)
	b := newReplayBackend(t, cfg, attack.Params{Intensity: 0.5, BurstLength: 100 * time.Millisecond, Interval: 2 * time.Second})
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 2*cfg.Window; i++ {
		b.record(at, time.Duration(i%7)*100*time.Millisecond)
	}
	b.receive(TimedReport{BurstReport: BurstReport{Burst: 1, ExecMs: 120}, At: at})
	if allocs := testing.AllocsPerRun(100, func() { b.decide() }); allocs != 0 {
		t.Errorf("a live decision allocates %v objects, want 0", allocs)
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
