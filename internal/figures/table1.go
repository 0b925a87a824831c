package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/analytical"
	"memca/internal/stats"
)

// Table1Result captures Table I plus the analytical predictions built on
// it (Equations 2-10) for the evaluation's attack parameters, and an
// inverse-planning round trip.
type Table1Result struct {
	// Model echoes the system parameters.
	Model analytical.Model
	// Prediction is the closed-form outcome for D from the memory model
	// under full locking, L = 500 ms, I = 2 s.
	Prediction analytical.Prediction
	// PlannedAttack is the weakest attack PlanAttack finds for the
	// paper's goal (ρ >= 0.05, P_MB < 1 s at I = 2 s).
	PlannedAttack analytical.Attack
	// PlannedOK reports whether planning succeeded.
	PlannedOK bool
}

func init() {
	registerDist(DistDriver{Name: "table1", New: newTable1Run})
}

// newTable1Run prepares the analytical-model driver: a single job that
// evaluates the prediction and the inverse plan; the record is the
// result without the (pure, re-derived) model echo.
func newTable1Run(opts Options) (*DistRun, error) {
	m := analytical.RUBBoS3Tier()
	return newRun(1, func(*stats.Arena, int) (Table1Result, error) {
		attack := analytical.Attack{D: 0.1, L: 500 * time.Millisecond, I: 2 * time.Second}
		pred, err := m.Predict(attack)
		if err != nil {
			return Table1Result{}, fmt.Errorf("figures: table1 predict: %w", err)
		}
		res := Table1Result{Prediction: pred}
		planned, err := analytical.PlanAttack(m, analytical.Goal{
			MinImpact:          0.05,
			MaxMillibottleneck: time.Second,
		}, 2*time.Second)
		if err == nil {
			res.PlannedAttack = planned
			res.PlannedOK = true
		}
		return res, nil
	}, func(recs []Table1Result) (any, string, error) {
		res := recs[0]
		res.Model = m
		pred := res.Prediction
		if len(pred.FillTimes) != len(m.Tiers) {
			return nil, "", fmt.Errorf("figures: table1 record has %d fill times, want %d", len(pred.FillTimes), len(m.Tiers))
		}
		rows := [][]string{}
		for i, t := range m.Tiers {
			fill := "-"
			if pred.FillTimes[i] >= 0 {
				fill = strconv.FormatFloat(pred.FillTimes[i].Seconds()*1000, 'f', 1, 64)
			}
			rows = append(rows, []string{
				t.Name,
				strconv.Itoa(t.Queue),
				strconv.FormatFloat(t.CapacityOFF, 'f', 0, 64),
				strconv.FormatFloat(t.ArrivalRate, 'f', 0, 64),
				fill,
			})
		}
		if err := opts.writeCSV("table1_model.csv", []string{"tier", "queue_Q", "capacity_C_off", "arrival_lambda", "fill_ms"}, rows); err != nil {
			return nil, "", err
		}
		rows = [][]string{
			{"C_n_ON_req_s", strconv.FormatFloat(pred.CnON, 'f', 1, 64)},
			{"total_fill_ms", strconv.FormatFloat(pred.TotalFill.Seconds()*1000, 'f', 1, 64)},
			{"damage_period_ms", strconv.FormatFloat(pred.DamagePeriod.Seconds()*1000, 'f', 1, 64)},
			{"drain_ms", strconv.FormatFloat(pred.DrainTime.Seconds()*1000, 'f', 1, 64)},
			{"millibottleneck_ms", strconv.FormatFloat(pred.Millibottleneck.Seconds()*1000, 'f', 1, 64)},
			{"impact_rho", strconv.FormatFloat(pred.Impact, 'f', 4, 64)},
		}
		if err := opts.writeCSV("table1_prediction.csv", []string{"quantity", "value"}, rows); err != nil {
			return nil, "", err
		}
		lines := []string{fmt.Sprintf("D=0.1, L=500ms, I=2s: fill %v, damage %v, drain %v, P_MB %v, rho %.4f",
			pred.TotalFill.Round(time.Millisecond), pred.DamagePeriod.Round(time.Millisecond),
			pred.DrainTime.Round(time.Millisecond), pred.Millibottleneck.Round(time.Millisecond), pred.Impact)}
		if res.PlannedOK {
			a := res.PlannedAttack
			lines = append(lines, fmt.Sprintf("planned weakest attack for rho>=0.05, P_MB<1s: D=%.2f L=%v I=%v",
				a.D, a.L.Round(time.Millisecond), a.I.Round(time.Millisecond)))
		}
		return &res, strings.Join(lines, "\n"), nil
	}), nil
}
