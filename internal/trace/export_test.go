package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
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
	dir := t.TempDir()
	path := filepath.Join(dir, "p.csv")
	ps := []float64{50, 95}
	curves := [][]time.Duration{
		{10 * time.Millisecond, 1200 * time.Millisecond},
		{2 * time.Millisecond, 300 * time.Millisecond},
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
	// A missing or short curve fails before the file is created.
	for _, tc := range []struct {
		name   string
		names  []string
		curves [][]time.Duration
	}{
		{"missing", []string{"client", "ghost"}, curves[:1]},
		{"short", []string{"client"}, [][]time.Duration{{time.Millisecond}}},
	} {
		path := filepath.Join(dir, tc.name+".csv")
		if err := PercentileCurveCSV(path, ps, tc.names, tc.curves); err == nil {
			t.Errorf("%s curve accepted", tc.name)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s curve: stat %s = %v, want no file", tc.name, path, err)
		}
	}
}

// TestCSVWriteErrorsSurface points every CSV writer at /dev/full, where
// every write fails with ENOSPC: each must return that error with the
// path in its message, so buffering can never swallow a failed write.
func TestCSVWriteErrorsSurface(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("no %s on this system: %v", full, err)
	}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"WriteCSV", func() error { return WriteCSV(full, []string{"a"}, [][]string{{"1"}}) }},
		{"BucketsCSV", func() error { return BucketsCSV(full, []stats.Bucket{{Count: 1}}) }},
		{"SeriesCSV", func() error { return SeriesCSV(full, []stats.Point{{V: 1}}) }},
		{"PercentileCurveCSV", func() error {
			return PercentileCurveCSV(full, []float64{50}, []string{"client"}, [][]time.Duration{{time.Millisecond}})
		}},
	} {
		err := tc.write()
		if !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s to %s returned %v, want ENOSPC", tc.name, full, err)
		} else if !strings.Contains(err.Error(), full) {
			t.Errorf("%s error %q does not name %s", tc.name, err, full)
		}
	}
}

// TestCSVAllocsIndependentOfRows pins the streaming writers: a bucket
// CSV costs the same allocations at 16 rows as at 16,384, so no row or
// cell is materialised on the heap.
func TestCSVAllocsIndependentOfRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.csv")
	allocs := func(n int) float64 {
		buckets := make([]stats.Bucket, n)
		for i := range buckets {
			buckets[i] = stats.Bucket{Start: time.Duration(i) * 50 * time.Millisecond, Mean: float64(i) / 7, Max: float64(i), Min: 1 / float64(i+1), Count: i}
		}
		return testing.AllocsPerRun(5, func() {
			if err := BucketsCSV(path, buckets); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(16384); small != large {
		t.Errorf("BucketsCSV allocates %v per call at 16 buckets and %v at 16384; want equal", small, large)
	}
}

// FuzzWriteCSV is the differential oracle of the CSV quoting rule: any
// header and rows of arbitrary strings must come out of WriteCSV byte for
// byte as csv.Writer writes them. The header argument holds fields
// separated by 0x1f; the rows argument holds rows separated by 0x1e, each
// split into fields the same way.
func FuzzWriteCSV(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, header, rows string) {
		fields := strings.Split(header, "\x1f")
		var table [][]string
		for _, row := range strings.Split(rows, "\x1e") {
			table = append(table, strings.Split(row, "\x1f"))
		}
		path := filepath.Join(dir, "f.csv")
		if err := WriteCSV(path, fields, table); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		w := csv.NewWriter(&want)
		if err := w.Write(fields); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteAll(table); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("WriteCSV(%q, %q):\ngot  %q\nwant %q", header, rows, got, want.Bytes())
		}
	})
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
