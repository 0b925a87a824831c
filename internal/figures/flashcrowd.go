package figures

import (
	"fmt"
	"sort"
	"time"

	"memca/internal/core"
	"memca/internal/monitor"
	"memca/internal/stats"
)

// FlashCrowdResult contrasts an organic load surge with MemCA: a flash
// crowd raises the 1-minute average CPU, trips the Auto Scaling trigger,
// gets absorbed by the new capacity, and leaves again — everything the
// cloud's machinery was designed for and everything MemCA avoids.
type FlashCrowdResult struct {
	// ScaleEvents is how many scale-out actions fired (>= 1 expected).
	ScaleEvents int
	// PeakCoarseUtil is the highest 1-minute average CPU (visible).
	PeakCoarseUtil float64
	// CrowdP95 is the client p95 during the surge before capacity
	// arrived.
	CrowdP95 time.Duration
	// AbsorbedP95 is the client p95 after the scale-out took effect.
	AbsorbedP95 time.Duration
}

func init() {
	registerDist(DistDriver{Name: "crowd", New: newFlashCrowdRun})
}

// flashCrowdRecord is the run's verdict plus the per-completion client
// RT series the CSV exports.
type flashCrowdRecord struct {
	Result   FlashCrowdResult
	ClientRT []stats.Point
}

// newFlashCrowdRun prepares the flash-crowd driver: a single attackless
// run whose client population doubles for three minutes, with a live
// scaling group attached.
func newFlashCrowdRun(opts Options) (*DistRun, error) {
	return newRun(1, func(a *stats.Arena, _ int) (flashCrowdRecord, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Arena = a
		cfg.Attack = nil
		cfg.Duration = 5 * time.Minute // fixed: the 1-min trigger needs room
		cfg.Scaling = &core.ScalingSpec{
			Trigger:        monitor.DefaultAutoScaler(),
			MaxInstances:   4,
			ProvisionDelay: 30 * time.Second,
		}
		// The crowd spans three minutes: long enough for the 1-minute
		// trigger to fire (~t+70s), the instance to boot (+30s), and the
		// overload backlog to drain before the absorbed-phase measurement.
		crowdStart := cfg.Warmup + 30*time.Second
		crowdEnd := cfg.Warmup + 210*time.Second

		x, err := core.NewExperiment(cfg)
		if err != nil {
			return flashCrowdRecord{}, fmt.Errorf("figures: flash crowd: %w", err)
		}
		engine := x.Engine()
		engine.At(crowdStart, func() { x.Generator().SetPopulation(cfg.Clients*2, 5*time.Second) })
		engine.At(crowdEnd, func() { x.Generator().SetPopulation(cfg.Clients, 0) })

		// Collect client RTs per phase.
		x.Generator().RecordSeries(true)
		rep, err := x.Run()
		if err != nil {
			return flashCrowdRecord{}, fmt.Errorf("figures: flash crowd run: %w", err)
		}

		res := FlashCrowdResult{ScaleEvents: len(rep.ScaleEvents)}
		for _, v := range rep.VictimUtilization {
			if v.Granularity == monitor.GranularityCloud && v.Max > res.PeakCoarseUtil {
				res.PeakCoarseUtil = v.Max
			}
		}
		// Phase percentiles from the per-completion series.
		series := x.Generator().RTSeries()
		crowdRTs := make([]time.Duration, 0, 4096)
		absorbedRTs := make([]time.Duration, 0, 4096)
		absorbedFrom := crowdStart + 140*time.Second // provision landed + backlog drained
		for _, p := range series.Points {
			rt := time.Duration(p.V * float64(time.Second))
			switch {
			case p.T >= crowdStart+30*time.Second && p.T < crowdStart+90*time.Second:
				crowdRTs = append(crowdRTs, rt)
			case p.T >= absorbedFrom && p.T < crowdEnd:
				absorbedRTs = append(absorbedRTs, rt)
			}
		}
		res.CrowdP95 = percentileOf(crowdRTs, 0.95)
		res.AbsorbedP95 = percentileOf(absorbedRTs, 0.95)
		return flashCrowdRecord{Result: res, ClientRT: series.Points}, nil
	}, func(recs []flashCrowdRecord) (any, string, error) {
		if err := writeSeries(opts.path("flashcrowd.csv"), recs[0].ClientRT); err != nil {
			return nil, "", err
		}
		res := recs[0].Result
		summary := fmt.Sprintf("peak 1-min CPU %.0f%%, %d scale events; p95 %v during surge -> %v after absorption",
			res.PeakCoarseUtil*100, res.ScaleEvents,
			res.CrowdP95.Round(time.Millisecond), res.AbsorbedP95.Round(time.Millisecond))
		return &res, summary, nil
	}), nil
}

// FlashCrowd doubles the client population for two minutes of a four-
// minute attackless run with a live scaling group attached.
func FlashCrowd(opts Options) (*FlashCrowdResult, error) {
	return runAs[*FlashCrowdResult]("crowd", opts)
}

// percentileOf computes a simple order-statistic percentile.
func percentileOf(vals []time.Duration, q float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	cp := make([]time.Duration, len(vals))
	copy(cp, vals)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}
