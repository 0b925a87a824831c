package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memca/internal/plan"
	"memca/internal/spec"
)

// TestPlannerValidationGrid is the planner's acceptance contract: for
// every grid cell, the sizing chosen by plan.Solve holds the SLO in the
// closed-loop simulation, and the next-smaller sizing (one bottleneck
// replica fewer) violates it. The planner's analytical feasibility
// boundary and the simulator's must agree cell by cell, at every seed.
func TestPlannerValidationGrid(t *testing.T) {
	dir := t.TempDir()
	opts := Options{OutDir: dir, Quick: true, Seed: 7}
	res, err := runAs[*PlannerResult]("planner", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != len(plan.DefaultGrid()) || res.Runs != 3*res.Cells {
		t.Errorf("grid shape: %d cells, %d runs", res.Cells, res.Runs)
	}
	if !res.AllSizedOK {
		t.Errorf("a planner-chosen sizing violated the SLO in simulation (worst p99 %v)", res.MaxSizedP99)
	}
	if !res.AllSmallerViolate {
		t.Errorf("a minimality witness met the SLO in simulation (best p99 %v)", res.MinSmallerP99)
	}
	slo := spec.DefaultSLO()
	if res.MaxSizedP99 >= slo.TargetRT {
		t.Errorf("sized p99 %v has no margin to the target %v", res.MaxSizedP99, slo.TargetRT)
	}
	if res.MinSmallerP99 <= slo.TargetRT {
		t.Errorf("witness p99 %v does not clear the target %v", res.MinSmallerP99, slo.TargetRT)
	}

	data, err := os.ReadFile(filepath.Join(dir, "planner_validation.csv"))
	if err != nil {
		t.Fatalf("validation CSV not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+res.Runs {
		t.Errorf("CSV has %d lines, want header + %d rows", len(lines), res.Runs)
	}
}
