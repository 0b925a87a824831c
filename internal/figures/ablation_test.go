package figures

import (
	"testing"
	"time"

	"memca/internal/queueing"
	"memca/internal/stats"
)

func TestAblationBurstLength(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*AblationResult]("ablation-burst-length", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Damage grows with L (Eq 7): the shortest burst never finishes the
	// build-up stage, the longest clearly exceeds the goal.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.ClientP95 >= time.Second {
		t.Errorf("L=100ms already at p95 %v, expected below goal", first.ClientP95)
	}
	if last.ClientP95 < time.Second {
		t.Errorf("L=800ms p95 %v, expected above goal", last.ClientP95)
	}
	// Stealth cost grows with L: coarse utilization increases.
	if last.CoarseUtil <= first.CoarseUtil {
		t.Errorf("coarse utilization did not grow with L: %v -> %v", first.CoarseUtil, last.CoarseUtil)
	}
	requireFiles(t, opts.OutDir, "ablation_burst_length.csv")
}

func TestAblationInterval(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*AblationResult]("ablation-interval", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Sparser bursts (larger I) mean lower impact ρ = P_D / I: fewer
	// requests above the RTO floor, so the p95 collapses once the
	// affected fraction drops below 5%.
	last := res.Points[len(res.Points)-1] // I = 8s
	first := res.Points[0]                // I = 1s
	if last.ClientP95 >= first.ClientP95 {
		t.Errorf("p95 did not fall with sparser bursts: I=1s %v vs I=8s %v", first.ClientP95, last.ClientP95)
	}
	// And stealth improves: coarse utilization falls with I.
	if last.CoarseUtil >= first.CoarseUtil {
		t.Errorf("coarse utilization did not fall with I: %v vs %v", first.CoarseUtil, last.CoarseUtil)
	}
	requireFiles(t, opts.OutDir, "ablation_interval.csv")
}

func TestAblationMechanisms(t *testing.T) {
	opts := quickOpts(t)
	res, err := AblationMechanisms(opts)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}
	full := byLabel["full"]
	noRetrans := byLabel["no-retransmit"]
	infQ := byLabel["infinite-queues"]
	tandem := byLabel["no-slot-holding"]

	// Retransmission is what lifts the client tail past 1 s.
	if full.ClientP99 < time.Second {
		t.Errorf("full model p99 %v, want >= 1s", full.ClientP99)
	}
	if noRetrans.ClientP99 >= time.Second {
		t.Errorf("without retransmission p99 %v, want < 1s", noRetrans.ClientP99)
	}
	// Dropping (finite queues) bounds queueing delay; with infinite
	// queues there are no drops at all.
	if infQ.Drops != 0 || tandem.Drops != 0 {
		t.Errorf("infinite-queue variants dropped: %d / %d", infQ.Drops, tandem.Drops)
	}
	if full.Drops == 0 {
		t.Error("full model did not drop")
	}
	requireFiles(t, opts.OutDir, "ablation_mechanisms.csv")
}

func TestAblationAdversaries(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*AblationResult]("ablation-adversaries", opts)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}
	// One locking VM suffices for the goal (the paper's economy claim)...
	if byLabel["lock-x1"].ClientP95 < time.Second {
		t.Errorf("single locking adversary p95 %v, want >= 1s", byLabel["lock-x1"].ClientP95)
	}
	// ...while bus saturation with the same budget does nearly nothing.
	if byLabel["saturation-x1"].ClientP95 > 200*time.Millisecond {
		t.Errorf("single saturating adversary p95 %v, want small", byLabel["saturation-x1"].ClientP95)
	}
	// Even four saturating VMs stay far below the lock attack's damage.
	if byLabel["saturation-x4"].ClientP95 >= byLabel["lock-x1"].ClientP95 {
		t.Error("saturation with 4 VMs should not beat one locking VM")
	}
	requireFiles(t, opts.OutDir, "ablation_adversaries.csv")
}

func TestAblationServiceDistribution(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*AblationResult]("ablation-service-distribution", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Tail amplification is distribution-robust: every variant reaches
	// the damage goal because drops + retransmission, not service-time
	// variance, drive the client tail.
	for _, p := range res.Points {
		if p.ClientP95 < time.Second {
			t.Errorf("%s: p95 = %v, want >= 1s", p.Label, p.ClientP95)
		}
		if p.Drops == 0 {
			t.Errorf("%s: no drops", p.Label)
		}
	}
	requireFiles(t, opts.OutDir, "ablation_service_distribution.csv")
}

func TestAblationLoad(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*AblationResult]("ablation-load", opts)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}
	// A quarter of the load starves condition 2: the same attack cannot
	// push the tail past the goal.
	if byLabel["clients=875"].ClientP95 >= time.Second {
		t.Errorf("quarter load p95 %v, want below goal", byLabel["clients=875"].ClientP95)
	}
	// At full and above-full population the attack succeeds.
	for _, label := range []string{"clients=3500", "clients=5000"} {
		if byLabel[label].ClientP95 < time.Second {
			t.Errorf("%s p95 %v, want >= 1s", label, byLabel[label].ClientP95)
		}
	}
	requireFiles(t, opts.OutDir, "ablation_load.csv")
}

// TestNoRetransmitIdentity pins the client's one "off" rule at the
// figure level: the mechanism ablation's no-retransmit cell gives the
// same point whether retransmission is off through the zero policy or
// through a policy that allows no retries.
func TestNoRetransmitIdentity(t *testing.T) {
	opts := Options{Quick: true, Seed: 1}
	v := mechanismVariants[1]
	if v.label != "no-retransmit" {
		t.Fatalf("cell 1 is %q, want no-retransmit", v.label)
	}
	off, err := mechanismPoint(stats.NewArena(), opts, v)
	if err != nil {
		t.Fatal(err)
	}
	v.retransmit = queueing.RetransmitPolicy{RTOMin: time.Second, Backoff: 2, MaxRetries: 0}
	noRetries, err := mechanismPoint(stats.NewArena(), opts, v)
	if err != nil {
		t.Fatal(err)
	}
	if off.Drops == 0 {
		t.Fatal("no-retransmit cell dropped nothing; the identity is vacuous")
	}
	if got, want := fingerprint(noRetries), fingerprint(off); got != want {
		t.Errorf("MaxRetries 0 differs from the zero policy:\n%s\nvs\n%s", got, want)
	}
}
