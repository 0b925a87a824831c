package main

import (
	"path/filepath"
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
