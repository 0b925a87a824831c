package figures

import (
	"fmt"
	"time"

	"memca/internal/core"
	"memca/internal/stats"
	"memca/internal/telemetry"
)

// AttributionResult captures the critical-path attribution experiment:
// where the p99 tail's time actually goes, attacked vs baseline, and how
// much of the latency signal coarse monitoring averages away.
type AttributionResult struct {
	// AttackedP99 / BaselineP99 are the client p99 response times.
	AttackedP99 time.Duration
	BaselineP99 time.Duration
	// AttackedWaitShare is the fraction of the attacked run's >=p99 tail
	// spent waiting (front-tier retransmission wait plus queueing) rather
	// than in service. The paper's tail-amplification claim is that this
	// dominates.
	AttackedWaitShare float64
	// AttackedRetransShare is the retransmission-wait fraction alone.
	AttackedRetransShare float64
	// BaselineServiceShare is the service fraction of the baseline run's
	// >=p99 tail: without the attack, slow requests are slow because of
	// work, not waiting.
	BaselineServiceShare float64
	// AttackedBlindness / BaselineBlindness are the 50ms-vs-1s peak
	// window-mean RT ratios (see telemetry.BlindnessRatio).
	AttackedBlindness float64
	BaselineBlindness float64
	// AttackedTailTraces is how many traces the attacked >=p99 breakdown
	// summarizes.
	AttackedTailTraces int
}

// attributionRecord is one run's distilled output.
type attributionRecord struct {
	P99       time.Duration
	Tail      []telemetry.Attribution
	Breakdown telemetry.Breakdown
	Blindness float64
	Timelines []timelineRecord
	TierNames []string
}

// timelineRecord is a telemetry.Timeline as plain record values.
type timelineRecord struct {
	Res, Base time.Duration
	Points    []telemetry.TimelinePoint
}

// attributionResolutions are the dual monitoring resolutions contrasted by
// the figure: fine enough to resolve a millibottleneck, and the 1-second
// floor of typical cloud monitoring.
var attributionResolutions = []time.Duration{50 * time.Millisecond, time.Second}

func init() {
	registerDist(DistDriver{Name: "attribution", New: newAttributionRun})
}

// newAttributionRun prepares the critical-path attribution driver: the
// attacked and the baseline RUBBoS experiment with per-request tracing,
// each decomposing its >=p99 latency tail inside the job.
func newAttributionRun(opts Options) (*DistRun, error) {
	labels := []string{"attacked", "baseline"}
	return newRun(len(labels), func(a *stats.Arena, i int) (attributionRecord, error) {
		attacked := i == 0
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(3 * time.Minute)
		cfg.Arena = a
		if !attacked {
			cfg.Attack = nil
		}
		spec := telemetry.DefaultSpec()
		spec.TailKeep = 4096
		spec.Resolutions = attributionResolutions
		cfg.Trace = &spec
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return attributionRecord{}, fmt.Errorf("figures: attribution attacked=%v: %w", attacked, err)
		}
		rep, err := x.Run()
		if err != nil {
			return attributionRecord{}, fmt.Errorf("figures: attribution attacked=%v run: %w", attacked, err)
		}
		tr := x.Tracer()
		rec := attributionRecord{
			P99:       rep.Client.P99,
			Tail:      tr.TailAttributions(),
			TierNames: tr.TierNames(),
		}
		for _, tl := range tr.Timelines() {
			rec.Timelines = append(rec.Timelines, timelineRecord{Res: tl.Res, Base: tl.Base(), Points: tl.Points()})
		}
		// Summarize only the traces at or above the run's own p99: the
		// slowest-N sample reaches deeper, but the claim is about the tail
		// percentile the paper reports.
		over := rec.Tail[:0:0]
		for j := range rec.Tail {
			if rec.Tail[j].RT >= rec.P99 {
				over = append(over, rec.Tail[j])
			}
		}
		rec.Breakdown = telemetry.Summarize(len(rec.TierNames), over)
		rec.Blindness = telemetry.BlindnessRatio(
			tr.Timeline(attributionResolutions[0]), tr.Timeline(attributionResolutions[1]))
		return rec, nil
	}, func(runs []attributionRecord) (any, string, error) {
		att, base := runs[0], runs[1]
		tiers := len(att.TierNames)
		for i, run := range runs {
			ok := len(run.TierNames) == tiers && len(run.Breakdown.Queue) == tiers && len(run.Breakdown.Service) == tiers
			for _, t := range run.Tail {
				ok = ok && len(t.Queue) == len(t.Service)
			}
			if !ok {
				return nil, "", fmt.Errorf("figures: attribution %s record does not match %d tiers", labels[i], tiers)
			}
		}
		res := &AttributionResult{
			AttackedP99:          att.P99,
			BaselineP99:          base.P99,
			AttackedWaitShare:    att.Breakdown.WaitShare(),
			AttackedRetransShare: share(att.Breakdown.RetransWait, att.Breakdown.RT),
			BaselineServiceShare: base.Breakdown.ServiceShare(),
			AttackedBlindness:    att.Blindness,
			BaselineBlindness:    base.Blindness,
			AttackedTailTraces:   att.Breakdown.Count,
		}
		if opts.OutDir != "" {
			breakdowns := []telemetry.Breakdown{att.Breakdown, base.Breakdown}
			if err := telemetry.WriteBreakdownCSV(opts.path("attribution.csv"), att.TierNames, labels, breakdowns); err != nil {
				return nil, "", err
			}
			for i, run := range runs {
				name := labels[i]
				if err := telemetry.WriteAttributionCSV(opts.path(fmt.Sprintf("attribution_tail_%s.csv", name)), run.TierNames, run.Tail); err != nil {
					return nil, "", err
				}
				for _, r := range run.Timelines {
					tl := telemetry.RestoreTimeline(r.Res, r.Base, r.Points)
					path := opts.path(fmt.Sprintf("attribution_timeline_%s_%dms.csv", name, r.Res.Milliseconds()))
					if err := telemetry.WriteTimelineCSV(path, &tl); err != nil {
						return nil, "", err
					}
				}
			}
		}
		summary := fmt.Sprintf("attacked p99 %v (baseline %v)\n"+
			"attacked >=p99 tail: wait share %.1f%% (retransmission %.1f%%) over %d traces\n"+
			"baseline >=p99 tail: service share %.1f%%\n"+
			"monitoring blindness (50ms vs 1s peak): %.2fx attacked, %.2fx baseline",
			res.AttackedP99.Round(time.Millisecond), res.BaselineP99.Round(time.Millisecond),
			res.AttackedWaitShare*100, res.AttackedRetransShare*100, res.AttackedTailTraces,
			res.BaselineServiceShare*100, res.AttackedBlindness, res.BaselineBlindness)
		return res, summary, nil
	}), nil
}

// FigAttribution runs the attacked and baseline RUBBoS experiments with
// per-request tracing and decomposes each run's >=p99 latency tail along
// its critical path. It writes a component-share CSV, per-trace tail
// attributions, and the dual-resolution timelines for both runs.
func FigAttribution(opts Options) (*AttributionResult, error) {
	return runAs[*AttributionResult]("attribution", opts)
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
