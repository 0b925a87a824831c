package lint

import (
	"strings"
	"testing"
)

// loadGolden loads one testdata package and returns it with the list of
// files the diagnostics will be anchored to.
func loadGolden(t *testing.T, name string) (*Package, []string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/"+name)
	if err != nil {
		t.Fatalf("Load testdata/%s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load testdata/%s: got %d packages, want 1", name, len(pkgs))
	}
	pkg := pkgs[0]
	var files []string
	for _, f := range pkg.Syntax {
		files = append(files, pkg.Fset.Position(f.Pos()).Filename)
	}
	return pkg, files
}

// runGolden applies one analyzer to a golden package and checks the
// `// want` annotations.
func runGolden(t *testing.T, name string, a *Analyzer, cfg *Config) {
	t.Helper()
	pkg, files := loadGolden(t, name)
	diags := Run([]*Package{pkg}, []*Analyzer{a}, cfg)
	problems, err := CheckExpectations(files, diags)
	if err != nil {
		t.Fatalf("CheckExpectations: %v", err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// goldenConfig treats every testdata package as sim-path and nothing as
// clock-allowed, so the golden files exercise the strict side of each rule.
func goldenConfig() *Config {
	return &Config{SimPath: []string{"memca/internal/lint/testdata/..."}}
}

func TestSimDeterminismGolden(t *testing.T) {
	runGolden(t, "simdeterminism", AnalyzerSimDeterminism(), goldenConfig())
}

func TestClockDisciplineGolden(t *testing.T) {
	runGolden(t, "clockdiscipline", AnalyzerClockDiscipline(), goldenConfig())
}

func TestFloatCompareGolden(t *testing.T) {
	runGolden(t, "floatcompare", AnalyzerFloatCompare(), goldenConfig())
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, "errdrop", AnalyzerErrDrop(), goldenConfig())
}

func TestHotPathAllocGolden(t *testing.T) {
	runGolden(t, "hotpathalloc", AnalyzerHotPathAlloc(), goldenConfig())
}

func TestAtomicMixGolden(t *testing.T) {
	runGolden(t, "atomicmix", AnalyzerAtomicMix(), goldenConfig())
}

// TestSimPathSilentWhenNotConfigured pins the scoping: simdeterminism and
// clockdiscipline must stay quiet on packages outside their police beat.
func TestSimPathSilentWhenNotConfigured(t *testing.T) {
	pkg, _ := loadGolden(t, "simdeterminism")
	cfg := &Config{} // no sim-path packages
	if diags := Run([]*Package{pkg}, []*Analyzer{AnalyzerSimDeterminism()}, cfg); len(diags) != 0 {
		t.Errorf("simdeterminism on non-sim-path package: got %d diagnostics, want 0", len(diags))
	}

	clock, _ := loadGolden(t, "clockdiscipline")
	allowed := &Config{ClockAllowed: []string{"memca/internal/lint/testdata/..."}}
	if diags := Run([]*Package{clock}, []*Analyzer{AnalyzerClockDiscipline()}, allowed); len(diags) != 0 {
		t.Errorf("clockdiscipline on allowlisted package: got %d diagnostics, want 0", len(diags))
	}
}

func TestDefaultConfigPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		path                  string
		simPath, clockAllowed bool
	}{
		{"memca", true, false},
		{"memca/internal/sim", true, false},
		{"memca/internal/queueing", true, false},
		{"memca/internal/figures", true, false},
		{"memca/internal/memcafw", false, true},
		{"memca/internal/victimd", false, true},
		{"memca/internal/monitor", false, true},
		{"memca/cmd/memca-bench", false, true},
		{"memca/examples/quickstart", false, true},
		// A brand-new package gets the strict default: no wall clock
		// until someone allowlists it consciously.
		{"memca/internal/newthing", false, false},
		// The lint suite is classified as tooling, not sim or clock code.
		{"memca/internal/lint", false, false},
	}
	for _, c := range cases {
		if got := cfg.IsSimPath(c.path); got != c.simPath {
			t.Errorf("IsSimPath(%q) = %v, want %v", c.path, got, c.simPath)
		}
		if got := cfg.IsClockAllowed(c.path); got != c.clockAllowed {
			t.Errorf("IsClockAllowed(%q) = %v, want %v", c.path, got, c.clockAllowed)
		}
	}
	if !isTool("memca/internal/lint") {
		t.Error("isTool(memca/internal/lint) = false, want true")
	}
	if isTool("memca/internal/sim") {
		t.Error("isTool(memca/internal/sim) = true, want false")
	}
	// Sanity: no package is both sim-path and clock-allowed, and tools are
	// in neither contract.
	for _, p := range cfg.SimPath {
		if cfg.IsClockAllowed(strings.TrimSuffix(p, "/...")) {
			t.Errorf("package %q is both sim-path and clock-allowed", p)
		}
	}
	for _, p := range toolPackages {
		if cfg.IsSimPath(p) || cfg.IsClockAllowed(p) {
			t.Errorf("tool package %q is also under a sim/clock contract", p)
		}
	}
	// Every escape-budgeted package is on the sim path: the zero-alloc
	// contract is a property of the measurement path.
	for _, p := range cfg.EscapeBudget {
		if !cfg.IsSimPath(p) && !cfg.IsClockAllowed(p) {
			t.Errorf("escape-budgeted package %q is unclassified", p)
		}
	}
}

// TestRunOrdersDiagnostics pins the stable output order the CLI relies on.
func TestRunOrdersDiagnostics(t *testing.T) {
	pkg, _ := loadGolden(t, "errdrop")
	diags := Run([]*Package{pkg}, []*Analyzer{AnalyzerErrDrop()}, goldenConfig())
	if len(diags) < 2 {
		t.Fatalf("want at least 2 diagnostics, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		prev, cur := diags[i-1].Pos, diags[i].Pos
		if prev.Filename > cur.Filename || (prev.Filename == cur.Filename && prev.Line > cur.Line) {
			t.Errorf("diagnostics out of order: %v before %v", prev, cur)
		}
	}
}

// TestTestOnlyGolden runs the whole-module testonly check over a golden
// module of four packages: a main, the API package testonly it imports,
// and that package's imports a and b.
func TestTestOnlyGolden(t *testing.T) {
	pkgs, err := Load(".", "./testdata/testonly/...")
	if err != nil {
		t.Fatalf("Load testdata/testonly: %v", err)
	}
	if len(pkgs) != 4 {
		t.Fatalf("Load testdata/testonly: got %d packages, want 4", len(pkgs))
	}
	var files []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			files = append(files, pkg.Fset.Position(f.Pos()).Filename)
		}
	}
	diags := CheckTestOnly(pkgs)
	problems, err := CheckExpectations(files, diags)
	if err != nil {
		t.Fatalf("CheckExpectations: %v", err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
