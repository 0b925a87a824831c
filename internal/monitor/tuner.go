package monitor

import (
	"fmt"
	"math"
	"sort"

	"memca/internal/stats"
	"memca/internal/telemetry"
)

// This file replaces the hand-picked detector constants the defense study
// started with. Both tuners are pure arithmetic over labeled replication
// data — run them on seed-derived replications and the chosen settings are
// as deterministic as the simulations that produced the data.

// ROCPoint is one operating point of the attribution-threshold sweep:
// alarm when a window's retransmission-wait share exceeds Threshold.
type ROCPoint struct {
	Threshold float64
	// TP / FP count eligible attacked / benign windows above Threshold.
	TP, FP int
	// TPR / FPR normalize by the eligible window populations.
	TPR, FPR float64
}

// TuneAttribution picks the AttributionDetector's share threshold by ROC
// sweep over labeled feature streams: attacked series are the positive
// population, benign series (clean baselines, flash crowds) the negative
// one. Every eligible window (Count >= minCount) contributes one labeled
// observation; candidate thresholds are the observed share values. The
// sweep chooses the candidate maximizing Youden's J (TPR - FPR), breaking
// ties toward the strictest threshold, and returns the midpoint between
// that candidate and the next observed share — centering the decision
// boundary in the separation gap instead of pinning it to a training
// observation.
func TuneAttribution(attacked, benign []*telemetry.FeatureSeries, minCount int) (AttributionDetector, []ROCPoint, error) {
	if minCount < 0 {
		minCount = 0
	}
	shares := func(series []*telemetry.FeatureSeries) []float64 {
		var out []float64
		for _, fs := range series {
			if fs == nil {
				continue
			}
			for _, w := range fs.Windows() {
				if w.Count < minCount {
					continue
				}
				out = append(out, w.RetransShare())
			}
		}
		sort.Float64s(out)
		return out
	}
	pos, neg := shares(attacked), shares(benign)
	if len(pos) == 0 {
		return AttributionDetector{}, nil, fmt.Errorf("monitor: no eligible attacked windows (minCount %d)", minCount)
	}

	// Candidate thresholds: every observed share, plus 0 (the natural
	// "any retransmission wait at all" operating point), deduplicated.
	all := make([]float64, 0, len(pos)+len(neg)+1)
	all = append(all, 0)
	all = append(all, pos...)
	all = append(all, neg...)
	sort.Float64s(all)
	candidates := all[:1]
	for _, v := range all[1:] {
		if v > candidates[len(candidates)-1] {
			candidates = append(candidates, v)
		}
	}

	// countAbove returns how many sorted values exceed threshold.
	countAbove := func(sorted []float64, threshold float64) int {
		return len(sorted) - sort.SearchFloat64s(sorted, math.Nextafter(threshold, math.Inf(1)))
	}
	roc := make([]ROCPoint, 0, len(candidates))
	best := -1
	bestJ := math.Inf(-1)
	for i, c := range candidates {
		p := ROCPoint{Threshold: c, TP: countAbove(pos, c), FP: countAbove(neg, c)}
		p.TPR = float64(p.TP) / float64(len(pos))
		if len(neg) > 0 {
			p.FPR = float64(p.FP) / float64(len(neg))
		}
		roc = append(roc, p)
		if j := p.TPR - p.FPR; j >= bestJ && p.TP > 0 {
			bestJ = j
			best = i
		}
	}
	if best < 0 {
		return AttributionDetector{}, roc, fmt.Errorf("monitor: attacked windows are indistinguishable from benign ones")
	}

	threshold := candidates[best]
	if best+1 < len(candidates) {
		threshold = (candidates[best] + candidates[best+1]) / 2
	}
	return AttributionDetector{ShareThreshold: threshold, MinCount: minCount}, roc, nil
}

// TunedCPUDetectors holds the three CPU-signal detectors with
// sensitivities calibrated by TuneCPUDetectors.
type TunedCPUDetectors struct {
	Threshold ThresholdDetector
	EWMA      EWMADetector
	CUSUM     CUSUMDetector
}

// Detectors returns the tuned set in canonical order.
func (t TunedCPUDetectors) Detectors() []Detector {
	return []Detector{t.Threshold, t.EWMA, t.CUSUM}
}

// TuneCPUDetectors calibrates each CPU-signal detector to the most
// sensitive setting on its parameter grid that stays silent on the clean
// (attack-free) baseline signal — the operating point a provider actually
// deploys: maximum sensitivity at zero standing false alarms. The grids
// scan from sensitive to insensitive, so the first silent setting wins.
func TuneCPUDetectors(clean []stats.Bucket) (TunedCPUDetectors, error) {
	if len(clean) == 0 {
		return TunedCPUDetectors{}, fmt.Errorf("monitor: clean baseline must not be empty")
	}
	var tuned TunedCPUDetectors

	// Hard threshold: lowest level (5% steps) that never fires twice in a
	// row on the baseline.
	found := false
	for level := 5; level <= 95; level += 5 {
		d := ThresholdDetector{Threshold: float64(level) / 100, MinConsecutive: 2}
		if d.Detect(clean) == 0 {
			tuned.Threshold = d
			found = true
			break
		}
	}
	if !found {
		return TunedCPUDetectors{}, fmt.Errorf("monitor: no silent threshold level on the clean baseline")
	}

	// EWMA anomaly: smallest deviation multiplier K (then smoothing alpha)
	// that stays silent.
	found = false
	for k := 2; k <= 8 && !found; k++ {
		for _, alpha := range []float64{0.1, 0.2, 0.3} {
			d := EWMADetector{Alpha: alpha, K: float64(k), Warmup: 20}
			if d.Detect(clean) == 0 {
				tuned.EWMA = d
				found = true
				break
			}
		}
	}
	if !found {
		return TunedCPUDetectors{}, fmt.Errorf("monitor: no silent EWMA setting on the clean baseline")
	}

	// CUSUM: in-control target is the baseline mean; smallest decision
	// threshold h (then slack k) that stays silent.
	mean := 0.0
	for _, b := range clean {
		mean += b.Mean
	}
	mean /= float64(len(clean))
	found = false
	for _, h := range []float64{0.5, 1, 2, 3, 5, 8} {
		for _, slack := range []float64{0.02, 0.05, 0.1, 0.2} {
			d := CUSUMDetector{Target: mean, Slack: slack, DecisionThreshold: h}
			if d.Detect(clean) == 0 {
				tuned.CUSUM = d
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		return TunedCPUDetectors{}, fmt.Errorf("monitor: no silent CUSUM setting on the clean baseline")
	}
	return tuned, nil
}
