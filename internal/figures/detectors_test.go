package figures

import (
	"testing"
	"time"

	"memca/internal/monitor"
)

func TestDetectorComparison(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*DetectorComparisonResult]("detectors", opts)
	if err != nil {
		t.Fatal(err)
	}
	alarms := func(scenario, det string, g time.Duration) int {
		for _, c := range res.Cells {
			if c.Scenario == scenario && c.Detector == det && c.Granularity == g {
				return c.Alarms
			}
		}
		t.Fatalf("missing cell %s/%s/%v", scenario, det, g)
		return 0
	}
	granularities := []time.Duration{monitor.GranularityUser, monitor.GranularityFine}

	// The attribution detector detects the attack at both granularities
	// with zero false alarms on the clean baseline and the flash crowd —
	// the separation its auto-tuned retransmission-share threshold buys.
	for _, g := range granularities {
		if got := alarms(ScenarioAttack, "attribution", g); got == 0 {
			t.Errorf("attribution@%v missed the attack", g)
		}
		for _, benign := range []string{ScenarioClean, ScenarioFlashCrowd} {
			if got := alarms(benign, "attribution", g); got != 0 {
				t.Errorf("attribution@%v alarmed %d times on %s, want 0", g, got, benign)
			}
		}
	}

	// Every CPU-signal detector at user-facing (1 s) granularity either
	// misses the attack or cannot tell it from the benign flash crowd —
	// the Section V-B stealthiness claim in quantitative form.
	for _, det := range []string{"threshold", "ewma", "cusum"} {
		attack := alarms(ScenarioAttack, det, monitor.GranularityUser)
		flash := alarms(ScenarioFlashCrowd, det, monitor.GranularityUser)
		if attack > 0 && flash == 0 {
			t.Errorf("%s@1s detected the attack (%d alarms) while staying silent on the flash crowd", det, attack)
		}
	}

	// The tuned share threshold separates cleanly: strictly inside (0, 1)
	// and reached with no false positives somewhere on the ROC.
	if thr := res.Attribution.ShareThreshold; thr <= 0 || thr >= 1 {
		t.Errorf("attribution threshold %v outside (0, 1)", thr)
	}
	perfect := false
	for _, p := range res.ROC {
		if p.FP == 0 && p.TP > 0 {
			perfect = true
			break
		}
	}
	if !perfect {
		t.Error("no ROC operating point with TP > 0 and FP == 0")
	}
	if len(res.Tuning) != 2 {
		t.Fatalf("got %d tuning entries, want 2", len(res.Tuning))
	}

	requireFiles(t, opts.OutDir, "detector_comparison.csv", "detector_roc.csv")
}
