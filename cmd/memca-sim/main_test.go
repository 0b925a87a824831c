package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestConfigRejectsScenarioFlags pins that a scenario flag set alongside
// -config is an error naming the flag, while -json, -runs and -parallel
// still combine with it (the missing file is then the first error).
func TestConfigRejectsScenarioFlags(t *testing.T) {
	config := filepath.Join("..", "..", "configs", "paper-default.json")
	err := run([]string{"-config", config, "-seed", "7", "-duration", "10s"})
	if err == nil || !strings.Contains(err.Error(), "-seed") || !strings.Contains(err.Error(), "-duration") {
		t.Errorf("run with -seed and -duration = %v, want an error naming both", err)
	}

	missing := filepath.Join(t.TempDir(), "missing.json")
	err = run([]string{"-config", missing, "-json", "out.json", "-runs", "2", "-parallel", "1"})
	if err == nil || !strings.Contains(err.Error(), "reading config") {
		t.Errorf("run with -json/-runs/-parallel = %v, want the config read error", err)
	}
}

// TestTraceWritesArtifacts pins the file set of a traced run: both span
// exports, both attributions, and per feature window (50 ms and 1 s) a
// timeline, a features CSV and its OTLP gauges, named by the run's label.
func TestTraceWritesArtifacts(t *testing.T) {
	for _, label := range []string{"attacked", "baseline"} {
		dir := t.TempDir()
		args := []string{"-trace", dir, "-duration", "2s", "-warmup", "1s"}
		if label == "baseline" {
			args = append(args, "-baseline")
		}
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var want []string
		for _, f := range []string{
			"attribution_%s.csv", "attribution_head_%s.csv",
			"features_%s_1000ms.csv", "features_%s_50ms.csv",
			"features_otlp_%s_1000ms.json", "features_otlp_%s_50ms.json",
			"otlp_%s.json",
			"timeline_%s_1000ms.csv", "timeline_%s_50ms.csv",
			"trace_%s.json",
		} {
			want = append(want, fmt.Sprintf(f, label))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s run wrote %q, want %q", label, got, want)
		}
	}
}

// TestTraceFlagCombinations pins that -trace traces exactly one run, so
// -runs 2 is an error naming both flags, and that a config-file scenario
// can be traced.
func TestTraceFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-trace", dir, "-runs", "2"})
	if err == nil || !strings.Contains(err.Error(), "-trace") || !strings.Contains(err.Error(), "-runs") {
		t.Errorf("run with -trace and -runs 2 = %v, want an error naming both", err)
	}

	config := filepath.Join("..", "..", "configs", "paper-default.json")
	if err := run([]string{"-config", config, "-trace", dir}); err != nil {
		t.Errorf("run with -config and -trace = %v, want it accepted", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace_attacked.json")); err != nil {
		t.Errorf("traced config run: %v", err)
	}
}

// TestRejectsRunsBelowOne pins that -runs below 1 is an error naming the
// flag, with or without -config, rather than a silent single run.
func TestRejectsRunsBelowOne(t *testing.T) {
	config := filepath.Join("..", "..", "configs", "paper-default.json")
	for _, args := range [][]string{
		{"-runs", "0"},
		{"-runs", "-3"},
		{"-config", config, "-runs", "0"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-runs") {
			t.Errorf("run %q = %v, want an error naming -runs", args, err)
		}
	}
}
