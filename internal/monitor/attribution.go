package monitor

import (
	"memca/internal/stats"
	"memca/internal/telemetry"
)

// FeatureDetector inspects a per-window attribution feature stream instead
// of a sampled utilization signal. It is the detector variant the paper's
// stealthiness result motivates: MemCA hides from every CPU-signal
// detector, but the resource actually amplifying latency — retransmission
// wait — is visible per window in the tracer's feature series.
type FeatureDetector interface {
	// DetectFeatures scans the series' windows in time order and returns
	// how many alarms they raise.
	DetectFeatures(fs *telemetry.FeatureSeries) int
	// Name labels the detector in reports.
	Name() string
}

// AttributionDetector alarms on windows whose retransmission-wait share
// exceeds a threshold. Flash crowds and other benign overloads keep this
// share near zero (their tails are queue- and service-dominated), so a
// threshold tuned by TuneAttribution separates MemCA from organic load
// where CPU sampling cannot.
type AttributionDetector struct {
	// ShareThreshold is the retransmission-wait share above which a
	// window alarms.
	ShareThreshold float64
	// MinCount skips windows with fewer closed traces: a near-empty
	// window's share is one retransmitted straggler away from 1.0.
	MinCount int
}

// Name implements FeatureDetector.
func (d AttributionDetector) Name() string { return "attribution" }

// DetectFeatures implements FeatureDetector.
func (d AttributionDetector) DetectFeatures(fs *telemetry.FeatureSeries) int {
	if fs == nil {
		return 0
	}
	alarms := 0
	for _, w := range fs.Windows() {
		if w.Count < d.MinCount {
			continue
		}
		if w.RetransShare() > d.ShareThreshold {
			alarms++
		}
	}
	return alarms
}

// featureBridge adapts a FeatureDetector bound to one feature series onto
// the bucket-based Detector interface.
type featureBridge struct {
	d  FeatureDetector
	fs *telemetry.FeatureSeries
}

// BridgeFeatures binds a FeatureDetector to a feature series so it can
// stand in the same detector lineup as the CPU-signal detectors: Detect
// ignores the sampled buckets and scans the bound series instead.
func BridgeFeatures(d FeatureDetector, fs *telemetry.FeatureSeries) Detector {
	return featureBridge{d: d, fs: fs}
}

// Name implements Detector.
func (b featureBridge) Name() string { return b.d.Name() }

// Detect implements Detector.
func (b featureBridge) Detect(_ []stats.Bucket) int { return b.d.DetectFeatures(b.fs) }

// Verify interface compliance.
var (
	_ FeatureDetector = AttributionDetector{}
	_ Detector        = featureBridge{}
)
