package figures

import "testing"

// TestFigAttribution pins the paper's tail-decomposition claim on live
// runs: under attack the p99 tail is wait-dominated (front-tier
// retransmission plus queueing), while the clean baseline's tail is
// service-dominated — per-tier latency monitoring sees healthy service
// times either way.
func TestFigAttribution(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*AttributionResult]("attribution", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackedTailTraces == 0 {
		t.Fatal("attacked run sampled no tail traces at or above p99")
	}
	if res.AttackedWaitShare < 0.5 {
		t.Errorf("attacked >=p99 tail wait share = %.3f, want >= 0.5 (drop/retransmission wait plus queueing should dominate)", res.AttackedWaitShare)
	}
	if res.BaselineServiceShare <= 0.5 {
		t.Errorf("baseline >=p99 tail service share = %.3f, want > 0.5 (clean tail should be service-dominated)", res.BaselineServiceShare)
	}
	if res.AttackedRetransShare > res.AttackedWaitShare {
		t.Errorf("retransmission share %.3f exceeds total wait share %.3f", res.AttackedRetransShare, res.AttackedWaitShare)
	}
	if res.AttackedP99 <= res.BaselineP99 {
		t.Errorf("attacked p99 %v not above baseline p99 %v", res.AttackedP99, res.BaselineP99)
	}
	// Monitoring blindness: the attacked run's transient spikes must be
	// visible at 50ms and averaged away at 1s.
	if res.AttackedBlindness <= 1.2 {
		t.Errorf("attacked blindness ratio = %.2f, want > 1.2 (fine-resolution peak should exceed coarse)", res.AttackedBlindness)
	}
	requireFiles(t, opts.OutDir,
		"attribution.csv",
		"attribution_tail_attacked.csv",
		"attribution_tail_baseline.csv",
		"attribution_timeline_attacked_50ms.csv",
		"attribution_timeline_attacked_1000ms.csv",
		"attribution_timeline_baseline_50ms.csv",
		"attribution_timeline_baseline_1000ms.csv",
	)
}
