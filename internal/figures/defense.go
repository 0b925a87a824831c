package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/core"
	"memca/internal/defense"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/stats"
	"memca/internal/sweep"
	"memca/internal/telemetry"
)

// DefensePoint is one (attack, defense) cell of the countermeasure matrix.
type DefensePoint struct {
	Attack  string
	Defense string
	// ClientP95 is the damage remaining under the defense.
	ClientP95 time.Duration
	// DegradationD is the degradation index the attack achieved on the
	// victim tier during bursts (1 = no degradation at all).
	DegradationD float64
	// Mitigated reports the damage goal was NOT met (p95 back under 1s).
	Mitigated bool
}

// DefenseResult captures the countermeasure evaluation: isolation
// primitives crossed with attack kinds, plus the fine-grained detector's
// verdict and its overhead cost.
type DefenseResult struct {
	Matrix []DefensePoint
	// DetectorEpisodes is how many millibottlenecks the 50 ms detector
	// found under the undefended lock attack.
	DetectorEpisodes int
	// DetectorVerdict is the ON-OFF classifier's conclusion.
	DetectorVerdict defense.Classification
	// DetectorOverhead is the monitoring cost (fraction of a core) —
	// the economic reason clouds don't run this by default.
	DetectorOverhead float64
	// CoarseDetectorEpisodes is what the same detector finds at 1 s
	// granularity: nothing, which is the paper's stealthiness argument.
	CoarseDetectorEpisodes int
	// Attribution is the feature detector tuned on a seed-derived clean
	// replication and used as the defense trigger.
	Attribution monitor.AttributionDetector
	// AttributionAlarms counts its alarms on the undefended lock attack.
	AttributionAlarms int
	// AttributionTriggered reports whether the trigger fired at all —
	// the condition under which the triggered defense row applies its
	// reservation instead of the undefended outcome.
	AttributionTriggered bool
	// TriggeredP95 is the client p95 of the attribution-triggered
	// reservation row: the reservation cell's measured p95 when the
	// trigger fired, the undefended one when it did not.
	TriggeredP95 time.Duration
}

func init() {
	registerDist(DistDriver{Name: "defense", New: newDefenseRun})
}

// defenseRecord is one defense job's outcome. Matrix cells fill Point;
// the undefended lock cell also carries its detector pass over the victim
// tier's CPU signal; the traced runs (that cell and the clean tuning
// replication) carry their 50 ms feature series.
type defenseRecord struct {
	Point          DefensePoint
	Episodes       int
	Verdict        defense.Classification
	CoarseEpisodes int
	Features       featuresRecord
}

// newDefenseRun prepares the countermeasure driver: the attack under no
// defense, bandwidth reservation, and split-lock protection, for both
// attack kinds, plus one seed-derived attack-free replication (the last
// job) whose feature stream calibrates the attribution trigger.
func newDefenseRun(opts Options) (*DistRun, error) {
	type cell struct {
		attackName string
		kind       memmodel.AttackKind
		defName    string
		spec       *core.DefenseSpec
	}
	reservation := &core.DefenseSpec{VictimReservationMBps: memmodel.MySQLProfile().DemandMBps}
	splitLock := &core.DefenseSpec{SplitLockProtection: true}
	cells := []cell{
		{"memory-lock", memmodel.AttackMemoryLock, "none", nil},
		{"memory-lock", memmodel.AttackMemoryLock, "bandwidth-reservation", reservation},
		{"memory-lock", memmodel.AttackMemoryLock, "split-lock-protection", splitLock},
		{"bus-saturation", memmodel.AttackBusSaturation, "none", nil},
		{"bus-saturation", memmodel.AttackBusSaturation, "bandwidth-reservation", reservation},
		{"bus-saturation", memmodel.AttackBusSaturation, "split-lock-protection", splitLock},
	}
	// The undefended lock attack is both the detectors' subject and the
	// trigger's positive example; the reservation cell is what the
	// trigger switches to.
	const undefendedLock, lockReservation = 0, 1
	horizon := opts.duration(90 * time.Second)

	return newRun(len(cells)+1, func(a *stats.Arena, i int) (defenseRecord, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = horizon
		cfg.Arena = a
		if i == len(cells) {
			cfg.Seed = sweep.DeriveSeed(opts.Seed, 200)
			cfg.Attack = nil
			cfg.Trace = featureTrace(monitor.GranularityFine)
			x, err := core.NewExperiment(cfg)
			if err != nil {
				return defenseRecord{}, fmt.Errorf("figures: defense clean tuning run: %w", err)
			}
			if _, err := x.Run(); err != nil {
				return defenseRecord{}, fmt.Errorf("figures: defense clean tuning run: %w", err)
			}
			return defenseRecord{Features: captureFeatures(x.Tracer().FeaturesAt(monitor.GranularityFine))}, nil
		}
		c := cells[i]
		cfg.Attack.Kind = c.kind
		// Give bus saturation its best shot: multiple adversaries.
		if c.kind == memmodel.AttackBusSaturation {
			cfg.Attack.AdversaryVMs = 4
		}
		cfg.Defense = c.spec
		if i == undefendedLock {
			cfg.Trace = featureTrace(monitor.GranularityFine)
		}
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return defenseRecord{}, fmt.Errorf("figures: defense %s/%s: %w", c.attackName, c.defName, err)
		}
		rep, err := x.Run()
		if err != nil {
			return defenseRecord{}, fmt.Errorf("figures: defense %s/%s run: %w", c.attackName, c.defName, err)
		}
		rec := defenseRecord{Point: DefensePoint{
			Attack:       c.attackName,
			Defense:      c.defName,
			ClientP95:    rep.Client.P95,
			DegradationD: rep.LastDegradation,
			Mitigated:    rep.Client.P95 < time.Second,
		}}
		if i != undefendedLock {
			return rec, nil
		}

		// Detection side: run the fine- and coarse-grained detectors over
		// this run's exact CPU signal.
		source := x.VictimCPU()
		fine, err := defense.NewDetector(defense.DefaultDetector())
		if err != nil {
			return defenseRecord{}, err
		}
		episodes, err := fine.Detect(source, horizon)
		if err != nil {
			return defenseRecord{}, err
		}
		rec.Episodes = len(episodes)
		rec.Verdict = defense.Classify(episodes, 5)

		coarseCfg := defense.DefaultDetector()
		coarseCfg.Granularity = time.Second
		coarse, err := defense.NewDetector(coarseCfg)
		if err != nil {
			return defenseRecord{}, err
		}
		coarseEpisodes, err := coarse.Detect(source, horizon)
		if err != nil {
			return defenseRecord{}, err
		}
		rec.CoarseEpisodes = len(coarseEpisodes)
		rec.Features = captureFeatures(x.Tracer().FeaturesAt(monitor.GranularityFine))
		return rec, nil
	}, func(recs []defenseRecord) (any, string, error) {
		lock := recs[undefendedLock]
		res := &DefenseResult{
			DetectorEpisodes:       lock.Episodes,
			DetectorVerdict:        lock.Verdict,
			DetectorOverhead:       defense.DefaultDetector().OverheadFraction(),
			CoarseDetectorEpisodes: lock.CoarseEpisodes,
		}
		for _, rec := range recs[:len(cells)] {
			res.Matrix = append(res.Matrix, rec.Point)
		}

		// Attribution trigger: tune the feature detector on the
		// seed-derived clean replication against the undefended lock
		// attack, then use it as the activation condition for bandwidth
		// reservation. The triggered row's p95 is not a new simulation —
		// the trigger decides which of the two measured outcomes applies:
		// the reservation cell's when the detector fires, the undefended
		// cell's when it stays silent.
		lockFeatures := lock.Features.series()
		attribution, _, err := monitor.TuneAttribution(
			[]*telemetry.FeatureSeries{lockFeatures},
			[]*telemetry.FeatureSeries{recs[len(cells)].Features.series()},
			detectorMinCount,
		)
		if err != nil {
			return nil, "", fmt.Errorf("figures: tuning defense trigger: %w", err)
		}
		res.Attribution = attribution
		res.AttributionAlarms = attribution.DetectFeatures(lockFeatures)
		res.AttributionTriggered = res.AttributionAlarms > 0
		res.TriggeredP95 = lock.Point.ClientP95
		if res.AttributionTriggered {
			res.TriggeredP95 = recs[lockReservation].Point.ClientP95
		}
		res.Matrix = append(res.Matrix, DefensePoint{
			Attack:       "memory-lock",
			Defense:      "attribution-triggered-reservation",
			ClientP95:    res.TriggeredP95,
			DegradationD: lock.Point.DegradationD,
			Mitigated:    res.TriggeredP95 < time.Second,
		})

		rows := make([][]string, 0, len(res.Matrix))
		lines := make([]string, 0, len(res.Matrix)+2)
		for _, p := range res.Matrix {
			rows = append(rows, []string{
				p.Attack, p.Defense,
				strconv.FormatFloat(p.ClientP95.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.DegradationD, 'f', 3, 64),
				strconv.FormatBool(p.Mitigated),
			})
			lines = append(lines, fmt.Sprintf("%-15s + %-22s p95=%-9v D=%.3f mitigated=%v",
				p.Attack, p.Defense, p.ClientP95.Round(time.Millisecond), p.DegradationD, p.Mitigated))
		}
		if err := opts.writeCSV("defense_matrix.csv", []string{"attack", "defense", "client_p95_ms", "degradation_d", "mitigated"}, rows); err != nil {
			return nil, "", err
		}
		lines = append(lines,
			fmt.Sprintf("50ms detector: %d episodes, attack classified: %v (overhead %.3f%% of a core)",
				res.DetectorEpisodes, res.DetectorVerdict.PulsatingAttack, res.DetectorOverhead*100),
			fmt.Sprintf("1s detector: %d episodes (the stealth window)", res.CoarseDetectorEpisodes))
		return res, strings.Join(lines, "\n"), nil
	}), nil
}
