package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memca/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden writes one CSV via write, then compares it byte-for-byte
// against testdata/<name>. The CSV formats are artifact contracts —
// figure regeneration promises byte-identical output across runs, worker
// counts, and refactors — so any diff here is a breaking change.
// Regenerate deliberately with: go test ./internal/trace -run Golden -update
func checkGolden(t *testing.T, name string, write func(path string) error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := write(path); err != nil {
		t.Fatalf("writing %s: %v", name, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s back: %v", name, err)
	}
	goldenPath := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden file:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenPercentileCurveCSV(t *testing.T) {
	percentiles := []float64{50, 90, 95, 99, 99.9}
	curves := map[string][]time.Duration{
		"client": {120 * time.Millisecond, 340 * time.Millisecond, 612 * time.Millisecond, 1850 * time.Millisecond, 3210 * time.Millisecond},
		"apache": {80 * time.Millisecond, 210 * time.Millisecond, 400 * time.Millisecond, 1200 * time.Millisecond, 2900 * time.Millisecond},
		"mysql":  {2 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond, 310 * time.Millisecond, 450 * time.Millisecond},
	}
	checkGolden(t, "percentile_curve.csv", func(path string) error {
		return PercentileCurveCSV(path, percentiles, []string{"client", "apache", "mysql"}, curves)
	})
}

func TestGoldenBucketsCSV(t *testing.T) {
	ts := stats.NewArena().TimeSeries("cpu")
	// A deterministic sawtooth resampled at 1 s: exercises full,
	// partial, and fractional-mean buckets.
	for i := 0; i < 40; i++ {
		ts.Add(time.Duration(i)*250*time.Millisecond, float64(i%8)/8)
	}
	buckets, err := ts.Resample(time.Second, 10*time.Second)
	if err != nil {
		t.Fatalf("resampling: %v", err)
	}
	checkGolden(t, "buckets.csv", func(path string) error {
		return BucketsCSV(path, buckets)
	})
}

func TestGoldenSeriesCSV(t *testing.T) {
	// Values picked to pin the 'g'/8-digit float formatting: integers,
	// fractions that need rounding, very small and large magnitudes.
	points := []stats.Point{
		{T: 0, V: 0},
		{T: 500 * time.Millisecond, V: 1},
		{T: time.Second, V: 0.125},
		{T: 1500 * time.Millisecond, V: 2.0 / 3.0},
		{T: 2 * time.Second, V: 1e-9},
		{T: 2500 * time.Millisecond, V: 123456.789},
	}
	checkGolden(t, "series.csv", func(path string) error {
		return SeriesCSV(path, points)
	})
}
