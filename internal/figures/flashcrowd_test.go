package figures

import (
	"testing"
	"time"
)

func TestFlashCrowd(t *testing.T) {
	opts := quickOpts(t)
	res, err := runAs[*FlashCrowdResult]("crowd", opts)
	if err != nil {
		t.Fatal(err)
	}
	// The organic surge is visible at CloudWatch granularity and trips
	// the scaler — everything MemCA avoids.
	if res.PeakCoarseUtil <= 0.85 {
		t.Errorf("peak 1-min CPU %v, want above the trigger", res.PeakCoarseUtil)
	}
	if res.ScaleEvents == 0 {
		t.Fatal("flash crowd did not trigger scaling")
	}
	// The surge hurt before capacity arrived, and the scale-out absorbed
	// it: post-absorption tail back to healthy single-digit-to-tens ms.
	if res.CrowdP95 < 50*time.Millisecond {
		t.Errorf("crowd-phase p95 %v, want degraded", res.CrowdP95)
	}
	if res.AbsorbedP95 > 50*time.Millisecond {
		t.Errorf("absorbed p95 %v, want healthy after scale-out", res.AbsorbedP95)
	}
	if res.AbsorbedP95 >= res.CrowdP95 {
		t.Errorf("scale-out did not help: %v -> %v", res.CrowdP95, res.AbsorbedP95)
	}
	requireFiles(t, opts.OutDir, "flashcrowd.csv")
}
