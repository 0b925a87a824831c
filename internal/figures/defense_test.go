package figures

import (
	"testing"
	"time"
)

func TestDefenseEvaluation(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*DefenseResult]("defense", opts)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(attack, def string) DefensePoint {
		for _, p := range res.Matrix {
			if p.Attack == attack && p.Defense == def {
				return p
			}
		}
		t.Fatalf("missing cell %s/%s", attack, def)
		return DefensePoint{}
	}

	// Undefended lock attack does its damage.
	if cell("memory-lock", "none").Mitigated {
		t.Error("undefended lock attack reported mitigated")
	}
	// Bandwidth reservation does NOT stop the lock attack: the bus lock
	// stalls the partition too (the asymmetry the matrix exists to show).
	if cell("memory-lock", "bandwidth-reservation").Mitigated {
		t.Error("bandwidth reservation should not stop a bus-lock attack")
	}
	// Split-lock protection neutralizes it completely.
	slp := cell("memory-lock", "split-lock-protection")
	if !slp.Mitigated {
		t.Errorf("split-lock protection failed: p95 = %v", slp.ClientP95)
	}
	if slp.DegradationD < 0.999 {
		t.Errorf("split-lock protection left D = %v, want 1", slp.DegradationD)
	}
	// Bandwidth reservation guarantees the saturation victim full speed.
	if d := cell("bus-saturation", "bandwidth-reservation").DegradationD; d < 0.999 {
		t.Errorf("reservation under saturation left D = %v, want 1", d)
	}
	// Bus saturation never reaches the damage goal in any cell (the
	// paper's reason for choosing the lock attack).
	for _, def := range []string{"none", "bandwidth-reservation", "split-lock-protection"} {
		if !cell("bus-saturation", def).Mitigated {
			t.Errorf("bus saturation reached the damage goal under %s", def)
		}
	}

	// Detection: the 50 ms detector sees the pulsating pattern that the
	// 1 s detector misses entirely.
	if res.DetectorEpisodes < 10 {
		t.Errorf("fine detector found %d episodes, want many", res.DetectorEpisodes)
	}
	if !res.DetectorVerdict.PulsatingAttack {
		t.Errorf("classifier missed the attack: %+v", res.DetectorVerdict)
	}
	// Mean spacing sits between the RTO echo (~1s) and the burst
	// interval (2s): every burst is followed by a retransmission-wave
	// echo millibottleneck.
	gotI := res.DetectorVerdict.MeanInterval
	if gotI < 500*time.Millisecond || gotI > 2500*time.Millisecond {
		t.Errorf("classified interval %v, want pulsating-range", gotI)
	}
	// The 1 s detector sees at most an isolated blip — no actionable
	// pattern — while the fine detector sees every burst.
	if res.CoarseDetectorEpisodes > res.DetectorEpisodes/4 {
		t.Errorf("coarse detector found %d of %d episodes, want almost none",
			res.CoarseDetectorEpisodes, res.DetectorEpisodes)
	}
	if res.DetectorOverhead <= 0 {
		t.Error("overhead accounting missing")
	}

	// Attribution trigger: the tuned feature detector fires on the
	// undefended lock attack, so the triggered-reservation row applies
	// the reservation cell's measured outcome.
	if !res.AttributionTriggered || res.AttributionAlarms == 0 {
		t.Errorf("attribution trigger stayed silent on the lock attack (%d alarms)", res.AttributionAlarms)
	}
	triggered := cell("memory-lock", "attribution-triggered-reservation")
	if triggered.ClientP95 != cell("memory-lock", "bandwidth-reservation").ClientP95 {
		t.Errorf("triggered row p95 %v, want the reservation cell's %v",
			triggered.ClientP95, cell("memory-lock", "bandwidth-reservation").ClientP95)
	}
	if triggered.ClientP95 != res.TriggeredP95 {
		t.Errorf("triggered row p95 %v disagrees with TriggeredP95 %v", triggered.ClientP95, res.TriggeredP95)
	}
	requireFiles(t, opts.OutDir, "defense_matrix.csv")
}
