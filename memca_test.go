package memca_test

import (
	"testing"
	"time"

	"memca"
)

// TestFacadeQuickExperiment exercises the public API end to end at reduced
// scale: configure, run, and read the report through the facade only.
func TestFacadeQuickExperiment(t *testing.T) {
	cfg := memca.DefaultConfig()
	cfg.Duration = 30 * time.Second
	cfg.Warmup = 5 * time.Second
	cfg.Clients = 700
	cfg.ThinkTime = 1400 * time.Millisecond

	x, err := memca.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GoalMet {
		t.Errorf("facade attack run missed the goal: p95 = %v", rep.Client.P95)
	}
	if len(rep.Tiers) != 3 {
		t.Errorf("tiers = %d", len(rep.Tiers))
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

func TestFacadeAnalytical(t *testing.T) {
	m := memca.RUBBoSModel()
	pred, err := memca.PredictAttack(m, memca.ModelAttack{
		D: 0.1, L: 500 * time.Millisecond, I: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.QueuesAllFill || pred.Impact <= 0 {
		t.Errorf("prediction wrong: %+v", pred)
	}
}

func TestFacadePercentilesCopy(t *testing.T) {
	a := memca.FigurePercentiles()
	a[0] = -1
	b := memca.FigurePercentiles()
	if b[0] == -1 {
		t.Error("FigurePercentiles returns a shared slice")
	}
	if b[len(b)-1] != 99.9 {
		t.Errorf("grid end = %v", b[len(b)-1])
	}
}

func TestFacadeAutoScaler(t *testing.T) {
	trigger := memca.DefaultAutoScaler()
	if trigger.Threshold != 0.85 || trigger.Period != time.Minute {
		t.Errorf("default trigger: %+v", trigger)
	}
}
