package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSimPathCoversEngine pins the determinism contract's reach: the event
// engine and everything the redesigned zero-allocation path touches must
// stay on the sim side of the clock boundary. Removing one of these from
// DefaultConfig would silently exempt it from the analyzers.
func TestSimPathCoversEngine(t *testing.T) {
	cfg := DefaultConfig()
	for _, path := range []string{
		"memca",
		"memca/internal/sim",
		"memca/internal/queueing",
		"memca/internal/workload",
		"memca/internal/stats",
		"memca/internal/core",
		"memca/internal/sweep",
		"memca/internal/telemetry",
	} {
		if !cfg.IsSimPath(path) {
			t.Errorf("IsSimPath(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"memca/cmd/benchjson",
		"memca/cmd/memca-sim",
		"memca/cmd/memca-trace",
		"memca/examples/quickstart",
	} {
		if cfg.IsSimPath(path) {
			t.Errorf("IsSimPath(%q) = true, want false (binary)", path)
		}
		if !cfg.IsClockAllowed(path) {
			t.Errorf("IsClockAllowed(%q) = false, want true (binary)", path)
		}
	}
}

// TestEngineFilesClean runs the full analyzer suite over the real engine
// packages — not golden fixtures — so a determinism or clock regression in
// the rewritten event loop and pooled queueing path fails this unit test,
// not just the out-of-band `make lint` gate.
func TestEngineFilesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks real packages")
	}
	pkgs, err := Load("../..",
		"./internal/sim", "./internal/queueing", "./internal/workload",
		"./internal/core", "./internal/telemetry", "./internal/telemetry/live",
		"./internal/stats", "./cmd/memca-trace")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 8 {
		t.Fatalf("loaded %d packages, want 8", len(pkgs))
	}
	diags := Run(pkgs, Analyzers(), DefaultConfig())
	for _, d := range diags {
		t.Errorf("unexpected finding: %v", d)
	}
}

// TestEveryInternalPackageClassified walks internal/ on disk and fails if
// any package directory is classified neither SimPath, ClockAllowed, nor
// tooling (toolPackages). This closes the PR-5 gap where a freshly added package
// (telemetry/live nearly did it) would silently fall outside every
// contract: the default-deny model only works if "unclassified" is loud.
func TestEveryInternalPackageClassified(t *testing.T) {
	cfg := DefaultConfig()
	root := filepath.Join("..", "..")
	internal := filepath.Join(root, "internal")
	err := filepath.WalkDir(internal, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		// Only directories that actually hold Go files form packages.
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "memca/" + filepath.ToSlash(rel)
		n := 0
		if cfg.IsSimPath(importPath) {
			n++
		}
		if cfg.IsClockAllowed(importPath) {
			n++
		}
		if isTool(importPath) {
			n++
		}
		switch n {
		case 0:
			t.Errorf("package %s is classified neither SimPath, ClockAllowed, nor tooling: add it to DefaultConfig (or toolPackages) deliberately", importPath)
		case 1:
			// exactly one classification: correct
		default:
			t.Errorf("package %s has %d classifications, want exactly 1", importPath, n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/: %v", err)
	}
}

// toolPackages are the import paths that are development tooling rather
// than simulation or measurement code (the lint suite itself). No analyzer
// reads them: they are under neither the determinism nor the clock
// contract, and are listed here only so that the classification test
// accounts for them.
var toolPackages = []string{"memca/internal/lint"}

// isTool reports whether the package is one of toolPackages.
func isTool(importPath string) bool {
	for _, p := range toolPackages {
		if matchPattern(p, importPath) {
			return true
		}
	}
	return false
}
