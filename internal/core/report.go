package core

import (
	"fmt"
	"strings"
	"time"

	"memca/internal/analytical"
	"memca/internal/monitor"
	"memca/internal/stats"
	"memca/internal/trace"
)

// FigurePercentiles is the percentile grid used by the paper's tail plots
// (Figures 2 and 7).
var FigurePercentiles = []float64{50, 60, 70, 75, 80, 85, 90, 92, 94, 95, 96, 97, 98, 99, 99.5, 99.9}

// TierReport summarizes one tier's measured response times.
type TierReport struct {
	Name    string        `json:"name"`
	Summary stats.Summary `json:"summary"`
	// Curve holds the tier's percentile response times on
	// FigurePercentiles.
	Curve []time.Duration `json:"curve"`
}

// UtilizationView is one monitoring granularity's picture of the victim's
// CPU (the paper's Figure 10 panels).
type UtilizationView struct {
	Granularity time.Duration `json:"granularity"`
	// Mean is the average across buckets.
	Mean float64 `json:"mean"`
	// Max is the largest bucket.
	Max float64 `json:"max"`
	// Buckets is the full sampled series.
	Buckets []stats.Bucket `json:"buckets"`
}

// PageReport is one RUBBoS page type's client-side latency summary.
type PageReport struct {
	Name    string        `json:"name"`
	Summary stats.Summary `json:"summary"`
}

// AnalyticalCheck is the closed-form model's prediction for the attack
// the experiment actually ran, computed from the same tier parameters and
// the measured arrival rates — the model-vs-measurement cross-check of
// Section IV-B, attached to every attacked run.
type AnalyticalCheck struct {
	// D is the degradation index fed to the model (the injector's
	// last measured burst degradation).
	D float64 `json:"d"`
	// TotalFill, DamagePeriod, Millibottleneck and Impact are the
	// Equations (4)-(10) outputs.
	TotalFill       time.Duration `json:"total_fill"`
	DamagePeriod    time.Duration `json:"damage_period"`
	Millibottleneck time.Duration `json:"millibottleneck"`
	Impact          float64       `json:"impact"`
	// QueuesAllFill reports whether the model expects drops.
	QueuesAllFill bool `json:"queues_all_fill"`
}

// Report is the distilled outcome of one experiment.
type Report struct {
	// Env and attack echo the configuration for self-description.
	Env        string `json:"env"`
	AttackKind string `json:"attack_kind,omitempty"`

	// Client summarizes end-user response times (includes
	// retransmission delay).
	Client stats.Summary `json:"client"`
	// ClientCurve is the client percentile curve on FigurePercentiles.
	ClientCurve []time.Duration `json:"client_curve"`
	// Tiers lists per-tier reports front to back.
	Tiers []TierReport `json:"tiers"`
	// Pages breaks the client latency down by RUBBoS page type.
	Pages []PageReport `json:"pages"`
	// Analytical is the Equations (4)-(10) cross-check (nil for
	// baselines and custom topologies).
	Analytical *AnalyticalCheck `json:"analytical,omitempty"`

	// Requests/Drops/Retransmissions/Failures account for the workload.
	Requests        uint64 `json:"requests"`
	Drops           uint64 `json:"drops"`
	Retransmissions uint64 `json:"retransmissions"`
	Failures        uint64 `json:"failures"`

	// Bursts is how many attack bursts fired (0 for baselines).
	Bursts int `json:"bursts"`
	// AdversaryDuty is the adversary VM's average activity (L/I).
	AdversaryDuty float64 `json:"adversary_duty"`
	// LastDegradation is the most recent burst's degradation index D.
	LastDegradation float64 `json:"last_degradation,omitempty"`

	// VictimUtilization shows the bottleneck tier's CPU at the three
	// monitoring granularities over the measured window.
	VictimUtilization []UtilizationView `json:"victim_utilization"`
	// ScaleEvents lists elastic-scaling actions (empty = bypassed).
	ScaleEvents []monitor.ScaleEvent `json:"scale_events"`
	// Instances is the final fleet size of the bottleneck tier.
	Instances int `json:"instances"`

	// GoalMet reports whether the damage goal (p95 over the feedback
	// target, or over 1 s by default) was reached.
	GoalMet bool `json:"goal_met"`
}

func (x *Experiment) buildReport(from, to time.Duration) (*Report, error) {
	r := &Report{Env: x.cfg.Env.String()}
	if x.cfg.Attack != nil {
		r.AttackKind = x.cfg.Attack.Kind.String()
	}

	r.Client = x.gen.ClientRT().Summarize()
	r.ClientCurve = x.gen.ClientRT().PercentileCurve(FigurePercentiles)
	for i := 0; i < x.network.NumTiers(); i++ {
		name, err := x.network.TierName(i)
		if err != nil {
			return nil, err
		}
		sample, err := x.network.TierRT(i)
		if err != nil {
			return nil, err
		}
		r.Tiers = append(r.Tiers, TierReport{
			Name:    name,
			Summary: sample.Summarize(),
			Curve:   sample.PercentileCurve(FigurePercentiles),
		})
	}

	profile := x.gen.Profile()
	for i, page := range profile.Pages {
		sample, err := x.gen.PageRT(i)
		if err != nil {
			return nil, err
		}
		r.Pages = append(r.Pages, PageReport{Name: page.Name, Summary: sample.Summarize()})
	}

	r.Requests = x.gen.Requests()
	r.Retransmissions = x.gen.Retransmissions()
	r.Failures = x.gen.Failures()
	// Every drop the client saw ends in a retransmission or a failure.
	r.Drops = r.Retransmissions + r.Failures

	if x.burster != nil {
		r.Bursts = x.burster.Bursts()
		r.AdversaryDuty = x.burster.Busy().WindowAverage(from, to)
		r.LastDegradation = x.injector.BurstD
	}

	// Victim CPU utilization at the three granularities, over the
	// measured window (shifted so buckets start at 0 for export).
	source := x.VictimCPU()
	horizon := to - from
	for _, g := range []time.Duration{monitor.GranularityCloud, monitor.GranularityUser, monitor.GranularityFine} {
		if g > horizon {
			continue
		}
		sampler, err := monitor.NewSampler(g, source)
		if err != nil {
			return nil, err
		}
		view := UtilizationView{Granularity: g}
		n := 0
		add := func(b stats.Bucket) {
			n++
			view.Mean += b.Mean
			if b.Mean > view.Max {
				view.Max = b.Mean
			}
		}
		// Keep full buckets only for the coarse views; the 50 ms series
		// can run to thousands of points and belongs in CSV exports, so
		// it is summarized as the sampler walks it.
		if g >= monitor.GranularityUser {
			if view.Buckets, err = sampler.Collect(horizon); err != nil {
				return nil, err
			}
			for _, b := range view.Buckets {
				add(b)
			}
		} else if err := sampler.Walk(horizon, add); err != nil {
			return nil, err
		}
		view.Mean /= float64(n) // g <= horizon, so there is a bucket
		r.VictimUtilization = append(r.VictimUtilization, view)
	}

	r.Instances = 1
	if x.scaling != nil {
		r.ScaleEvents = x.scaling.Events()
		r.Instances = x.scaling.Instances()
	}

	if x.cfg.Attack != nil {
		if check, ok := x.analyticalCheck(from, to); ok {
			r.Analytical = check
		}
	}

	target := time.Second
	if x.cfg.Feedback != nil {
		target = x.cfg.Feedback.Goal.TargetRT
	}
	r.GoalMet = r.Client.P95 > target
	return r, nil
}

// analyticalCheck rebuilds the Section IV-B model from the experiment's
// tier configuration and measured arrival rates, then evaluates Equations
// (4)-(10) for the attack that actually ran.
func (x *Experiment) analyticalCheck(from, to time.Duration) (*AnalyticalCheck, bool) {
	tiers := x.tiers
	window := (to - from).Seconds()
	if window <= 0 {
		return nil, false
	}
	model := analytical.Model{}
	// λ_i = rate of requests terminating at tier i: the difference of
	// consecutive tiers' completion throughputs.
	completions := make([]float64, len(tiers))
	for i := range tiers {
		st, err := x.network.TierState(i)
		if err != nil {
			return nil, false
		}
		completions[i] = float64(st.Completions) / window
	}
	for i, tc := range tiers {
		if tc.Service == nil || tc.Service.Mean() <= 0 {
			return nil, false
		}
		terminate := completions[i]
		if i+1 < len(completions) {
			terminate -= completions[i+1]
		}
		if terminate < 0 {
			terminate = 0
		}
		model.Tiers = append(model.Tiers, analytical.Tier{
			Name:        tc.Name,
			Queue:       tc.QueueLimit,
			CapacityOFF: float64(tc.Servers) / tc.Service.Mean().Seconds(),
			ArrivalRate: terminate,
		})
	}
	d := x.injector.BurstD
	if d <= 0 || d >= 1 {
		return nil, false
	}
	pred, err := model.Predict(analytical.Attack{
		D: d,
		L: x.burster.Params().BurstLength,
		I: x.burster.Params().Interval,
	})
	if err != nil {
		return nil, false
	}
	return &AnalyticalCheck{
		D:               d,
		TotalFill:       pred.TotalFill,
		DamagePeriod:    pred.DamagePeriod,
		Millibottleneck: pred.Millibottleneck,
		Impact:          pred.Impact,
		QueuesAllFill:   pred.QueuesAllFill,
	}, true
}

// Render returns the report as human-readable text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "environment: %s", r.Env)
	if r.AttackKind != "" {
		fmt.Fprintf(&b, "  attack: %s (%d bursts, duty %.1f%%, last D %.3f)",
			r.AttackKind, r.Bursts, r.AdversaryDuty*100, r.LastDegradation)
	} else {
		b.WriteString("  attack: none (baseline)")
	}
	b.WriteString("\n\n")

	tbl := trace.Table{Header: []string{"observer", "n", "mean", "p50", "p90", "p95", "p98", "p99", "max"}}
	row := func(name string, s stats.Summary) {
		tbl.Add(name,
			fmt.Sprintf("%d", s.Count),
			fmtDur(s.Mean), fmtDur(s.P50), fmtDur(s.P90),
			fmtDur(s.P95), fmtDur(s.P98), fmtDur(s.P99), fmtDur(s.Max))
	}
	row("client", r.Client)
	for _, t := range r.Tiers {
		row(t.Name, t.Summary)
	}
	b.WriteString(tbl.Render())
	b.WriteByte('\n')

	fmt.Fprintf(&b, "requests=%d drops=%d retransmissions=%d failures=%d\n",
		r.Requests, r.Drops, r.Retransmissions, r.Failures)
	for _, v := range r.VictimUtilization {
		fmt.Fprintf(&b, "mysql CPU @ %-8v mean=%.1f%% max=%.1f%%\n", v.Granularity, v.Mean*100, v.Max*100)
	}
	if r.ScaleEvents != nil {
		fmt.Fprintf(&b, "scale events: %d (fleet %d)\n", len(r.ScaleEvents), r.Instances)
	}
	if r.Analytical != nil {
		fmt.Fprintf(&b, "analytical (Eq 4-10, D=%.3f): fill %v, damage %v, P_MB %v, rho %.3f\n",
			r.Analytical.D, r.Analytical.TotalFill.Round(time.Millisecond),
			r.Analytical.DamagePeriod.Round(time.Millisecond),
			r.Analytical.Millibottleneck.Round(time.Millisecond), r.Analytical.Impact)
	}
	fmt.Fprintf(&b, "damage goal met: %v (client p95 = %v)\n", r.GoalMet, r.Client.P95.Round(time.Millisecond))
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}
