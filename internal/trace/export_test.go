package trace

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memca/internal/stats"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "out.csv")
	err := WriteCSV(path, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[0][0] != "a" || records[2][1] != "4" {
		t.Errorf("unexpected records: %v", records)
	}
}

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteJSON(path, map[string]int{"x": 7}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got["x"] != 7 {
		t.Errorf("round trip failed: %v", got)
	}
}

func TestBucketsCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.csv")
	buckets := []stats.Bucket{{Start: time.Second, Mean: 0.5, Max: 1, Min: 0, Count: 3}}
	if err := BucketsCSV(path, buckets); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1.000000,0.5,1,0,3") {
		t.Errorf("unexpected CSV: %s", data)
	}
}

func TestSeriesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := SeriesCSV(path, []stats.Point{{T: 500 * time.Millisecond, V: 2.5}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "0.500000,2.5") {
		t.Errorf("unexpected CSV: %s", data)
	}
	if err := SeriesCSV(path, nil); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "t_s,value\n" {
		t.Errorf("empty series CSV = %q, %v; want the header alone", data, err)
	}
}

func TestPercentileCurveCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	ps := []float64{50, 95}
	curves := map[string][]time.Duration{
		"client": {10 * time.Millisecond, 1200 * time.Millisecond},
		"mysql":  {2 * time.Millisecond, 300 * time.Millisecond},
	}
	if err := PercentileCurveCSV(path, ps, []string{"client", "mysql"}, curves); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "percentile,client_ms,mysql_ms") {
		t.Errorf("bad header: %s", text)
	}
	if !strings.Contains(text, "95,1200.000,300.000") {
		t.Errorf("bad row: %s", text)
	}
	// Missing curve.
	if err := PercentileCurveCSV(path, ps, []string{"ghost"}, curves); err == nil {
		t.Error("missing curve accepted")
	}
	// Length mismatch.
	short := map[string][]time.Duration{"client": {time.Millisecond}}
	if err := PercentileCurveCSV(path, ps, []string{"client"}, short); err == nil {
		t.Error("short curve accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{Header: []string{"tier", "p95"}}
	tbl.Add("apache", "1.2s")
	tbl.Add("mysql", "300ms")
	out := tbl.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tier") || !strings.Contains(lines[0], "p95") {
		t.Errorf("bad header line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "apache") {
		t.Errorf("bad row: %q", lines[2])
	}
}
