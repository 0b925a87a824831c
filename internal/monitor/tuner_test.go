package monitor

import (
	"math"
	"testing"
	"time"

	"memca/internal/stats"
	"memca/internal/telemetry"
)

// shareSeries builds a feature series whose consecutive windows carry the
// given retransmission-wait shares, one closed trace per window.
func shareSeries(t *testing.T, shares ...float64) *telemetry.FeatureSeries {
	t.Helper()
	windows := make([]telemetry.WindowFeatures, len(shares))
	for i, share := range shares {
		rt := 100 * time.Millisecond
		retrans := time.Duration(share * float64(rt))
		windows[i].Observe(rt, 0, rt-retrans, retrans, 1, 0, 0)
	}
	fs := telemetry.RestoreFeatureSeries(100*time.Millisecond, 0, 0, windows)
	return &fs
}

func TestAttributionDetector(t *testing.T) {
	fs := shareSeries(t, 0.1, 0.9, 0.95, 0.2)
	d := AttributionDetector{ShareThreshold: 0.5}
	alarms := d.DetectFeatures(fs)
	if len(alarms) != 2 {
		t.Fatalf("got %d alarms, want 2", len(alarms))
	}
	if alarms[0].At != 100*time.Millisecond || alarms[1].At != 200*time.Millisecond {
		t.Errorf("alarm times = %v, %v", alarms[0].At, alarms[1].At)
	}
	if math.Abs(alarms[0].Value-0.9) > 1e-9 {
		t.Errorf("alarm value = %v, want 0.9", alarms[0].Value)
	}

	// MinCount gates every one-trace window out.
	gated := AttributionDetector{ShareThreshold: 0.5, MinCount: 2}
	if got := gated.DetectFeatures(fs); len(got) != 0 {
		t.Errorf("minCount-gated detector alarmed %d times", len(got))
	}
	if got := d.DetectFeatures(nil); got != nil {
		t.Error("nil series produced alarms")
	}
}

func TestBridgeFeatures(t *testing.T) {
	fs := shareSeries(t, 0.9)
	bridged := BridgeFeatures(AttributionDetector{ShareThreshold: 0.5}, fs)
	if bridged.Name() != "attribution" {
		t.Errorf("bridged name = %q", bridged.Name())
	}
	// The sampled buckets are ignored; only the bound series matters.
	if got := bridged.Detect([]stats.Bucket{{Mean: 0}}); len(got) != 1 {
		t.Errorf("bridged detect found %d alarms, want 1", len(got))
	}
	if got := bridged.Detect(nil); len(got) != 1 {
		t.Errorf("bridged detect without buckets found %d alarms, want 1", len(got))
	}
}

func TestTuneAttribution(t *testing.T) {
	attacked := shareSeries(t, 0.8, 0.9)
	benign := shareSeries(t, 0.1, 0.2)
	det, roc, err := TuneAttribution(
		[]*telemetry.FeatureSeries{attacked},
		[]*telemetry.FeatureSeries{benign}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates 0, 0.1, 0.2, 0.8, 0.9: Youden's J peaks at 0.2
	// (TPR 1, FPR 0); the returned threshold is the midpoint of the
	// separation gap [0.2, 0.8].
	if math.Abs(det.ShareThreshold-0.5) > 1e-9 {
		t.Errorf("threshold = %v, want 0.5", det.ShareThreshold)
	}
	if len(roc) != 5 {
		t.Fatalf("got %d ROC points, want 5", len(roc))
	}
	for _, p := range roc {
		if math.Abs(p.Threshold-0.2) < 1e-9 {
			if p.TP != 2 || p.FP != 0 || p.TPR != 1 || p.FPR != 0 {
				t.Errorf("ROC at 0.2 = %+v, want TP 2 FP 0", p)
			}
		}
	}

	// No attacked window passes a high minCount floor.
	if _, _, err := TuneAttribution(
		[]*telemetry.FeatureSeries{attacked},
		[]*telemetry.FeatureSeries{benign}, 5); err == nil {
		t.Error("empty eligible attacked population accepted")
	}
	// Attacked windows with zero share are inseparable from benign ones.
	if _, _, err := TuneAttribution(
		[]*telemetry.FeatureSeries{shareSeries(t, 0, 0)},
		[]*telemetry.FeatureSeries{benign}, 0); err == nil {
		t.Error("inseparable populations accepted")
	}
}

func TestTuneCPUDetectors(t *testing.T) {
	// A flat 40% clean signal with mild noise.
	clean := make([]stats.Bucket, 60)
	for i := range clean {
		clean[i] = stats.Bucket{
			Start: time.Duration(i) * time.Second,
			Mean:  0.4 + 0.01*float64(i%3),
		}
	}
	tuned, err := TuneCPUDetectors(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Every tuned detector is silent on its own calibration signal.
	for _, d := range tuned.Detectors() {
		if alarms := d.Detect(clean); len(alarms) != 0 {
			t.Errorf("tuned %s alarms %d times on its clean baseline", d.Name(), len(alarms))
		}
	}
	// The threshold sits just above the clean band: the 5%-step grid
	// stops at the first silent level.
	if tuned.Threshold.Threshold < 0.4 || tuned.Threshold.Threshold > 0.5 {
		t.Errorf("tuned threshold = %v, want just above the 0.40-0.42 band", tuned.Threshold.Threshold)
	}
	// A saturated signal trips all three.
	hot := make([]stats.Bucket, 60)
	for i := range hot {
		hot[i] = stats.Bucket{Start: time.Duration(i) * time.Second, Mean: 0.4}
		if i >= 30 {
			hot[i].Mean = 0.98
		}
	}
	for _, d := range tuned.Detectors() {
		if alarms := d.Detect(hot); len(alarms) == 0 {
			t.Errorf("tuned %s missed a sustained saturation", d.Name())
		}
	}

	if _, err := TuneCPUDetectors(nil); err == nil {
		t.Error("empty clean baseline accepted")
	}
}
