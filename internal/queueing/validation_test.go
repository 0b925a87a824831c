package queueing

import (
	"math"
	"testing"
	"time"

	"memca/internal/analytical"
	"memca/internal/sim"
	"memca/internal/stats"
)

// TestSimulatorMatchesErlangC cross-validates the simulator's steady state
// against the closed-form M/M/c results for several utilization levels:
// the OFF periods of a MemCA attack are plain M/M/c systems, so this
// anchors the substrate to textbook queueing theory.
func TestSimulatorMatchesErlangC(t *testing.T) {
	cases := []struct {
		name    string
		lambda  float64
		mu      float64
		servers int
		horizon time.Duration
	}{
		{"mm1-light", 30, 100, 1, 300 * time.Second},
		// High utilization converges slowly (long autocorrelated busy
		// periods), so the heavy case gets a much longer horizon.
		{"mm1-heavy", 80, 100, 1, 3000 * time.Second},
		{"mm2", 150, 100, 2, 500 * time.Second},
		{"mm4", 300, 100, 4, 500 * time.Second},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			q, err := analytical.NewMMc(tc.lambda, tc.mu, tc.servers)
			if err != nil {
				t.Fatal(err)
			}
			e := sim.NewEngine(42)
			mean := time.Duration(float64(time.Second) / tc.mu)
			n, err := New(e, Config{
				Arena: stats.NewArena(),
				Mode:  ModeNTierRPC,
				Tiers: []TierConfig{
					{Name: "q", QueueLimit: Infinite, Servers: tc.servers, Service: sim.NewExponential(mean)},
				},
				Classes: []Class{{Name: "c", Depth: 0}},
			})
			if err != nil {
				t.Fatal(err)
			}
			keepBusyHistory(t, n, 0)
			src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: tc.lambda})
			if err != nil {
				t.Fatal(err)
			}
			src.Start()
			horizon := tc.horizon
			e.Run(horizon)
			src.Stop()
			if err := e.RunAll(0); err != nil {
				t.Fatal(err)
			}

			gotW := src.ClientRT().Mean().Seconds()
			wantW := q.MeanResponse().Seconds()
			if math.Abs(gotW-wantW)/wantW > 0.1 {
				t.Errorf("mean response %vs, Erlang-C %vs", gotW, wantW)
			}
			gotU, err := n.TierUtilization(0, 0, horizon)
			if err != nil {
				t.Fatal(err)
			}
			wantU := q.Utilization()
			if math.Abs(gotU-wantU) > 0.05 {
				t.Errorf("utilization %v, want %v", gotU, wantU)
			}
		})
	}
}

// TestSimulatorMatchesDrainTime cross-validates Equation 9: after a full
// stall ends, the bottleneck queue drains in about Q_n / (C_OFF - λ).
func TestSimulatorMatchesDrainTime(t *testing.T) {
	const (
		qn     = 40
		lambda = 300.0
		mu     = 600.0 // 1 server
	)
	e := sim.NewEngine(11)
	n, err := New(e, Config{
		Arena: stats.NewArena(),
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "db", QueueLimit: qn, Servers: 1, Service: sim.NewExponentialRate(mu)},
		},
		Classes: []Class{{Name: "c", Depth: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No retransmission: Equation 9 models the drain under the
	// legitimate arrival rate only. (With retries the drops from the
	// stall period return as an extra wave and stretch the drain — a
	// real effect, but not the one Eq 9 isolates.)
	src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: lambda})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	// Stall long enough to fill the queue completely.
	e.Schedule(2*time.Second, func() { _ = n.SetCapacityMultiplier(0, 0) })
	e.Schedule(4*time.Second, func() { _ = n.SetCapacityMultiplier(0, 1) })

	var drainedAt time.Duration
	var watch func()
	watch = func() {
		st, err := n.TierState(0)
		if err != nil {
			t.Fatal(err)
		}
		// Drained when occupancy returns to a normal M/M/1 level.
		if drainedAt == 0 && e.Now() > 4*time.Second && st.InUse <= 3 {
			drainedAt = e.Now()
			return
		}
		if e.Now() < 10*time.Second {
			e.Schedule(2*time.Millisecond, watch)
		}
	}
	e.Schedule(4*time.Second, watch)
	e.Run(10 * time.Second)
	src.Stop()

	if drainedAt == 0 {
		t.Fatal("queue never drained")
	}
	got := (drainedAt - 4*time.Second).Seconds()
	want := qn / (mu - lambda) // Eq 9
	if math.Abs(got-want)/want > 0.5 {
		t.Errorf("drain time %.3fs, Eq 9 predicts %.3fs", got, want)
	}
}
