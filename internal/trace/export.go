// Package trace exports experiment artifacts: CSV series for each figure,
// JSON reports, and aligned text tables for terminal output.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"memca/internal/stats"
)

// WriteCSV writes a header and rows to path, creating parent directories.
func WriteCSV(path string, header []string, rows [][]string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: creating directory for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: closing %s: %w", path, cerr)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return fmt.Errorf("trace: writing header to %s: %w", path, err)
	}
	for i, row := range rows {
		if err := w.Write(row); err != nil {
			return fmt.Errorf("trace: writing row %d to %s: %w", i, path, err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("trace: flushing %s: %w", path, err)
	}
	return nil
}

// WriteJSON writes v as indented JSON to path, creating parent
// directories.
func WriteJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: creating directory for %s: %w", path, err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshaling for %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}

// BucketsCSV exports sampled buckets as (start_s, mean, max, min, count).
func BucketsCSV(path string, buckets []stats.Bucket) error {
	rows := make([][]string, 0, len(buckets))
	for _, b := range buckets {
		rows = append(rows, []string{
			formatSeconds(b.Start),
			strconv.FormatFloat(b.Mean, 'g', 8, 64),
			strconv.FormatFloat(b.Max, 'g', 8, 64),
			strconv.FormatFloat(b.Min, 'g', 8, 64),
			strconv.Itoa(b.Count),
		})
	}
	return WriteCSV(path, []string{"start_s", "mean", "max", "min", "count"}, rows)
}

// SeriesCSV exports the points of a raw time series as (t_s, value).
func SeriesCSV(path string, points []stats.Point) error {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{formatSeconds(p.T), strconv.FormatFloat(p.V, 'g', 8, 64)})
	}
	return WriteCSV(path, []string{"t_s", "value"}, rows)
}

// PercentileCurveCSV exports percentile curves (one column per named
// series), the format of the paper's Figures 2 and 7. Order fixes the
// column order for the named series.
func PercentileCurveCSV(path string, percentiles []float64, order []string, curves map[string][]time.Duration) error {
	header := make([]string, 0, len(order)+1)
	header = append(header, "percentile")
	for _, name := range order {
		if _, ok := curves[name]; !ok {
			return fmt.Errorf("trace: curve %q missing", name)
		}
		header = append(header, name+"_ms")
	}
	rows := make([][]string, 0, len(percentiles))
	for i, p := range percentiles {
		row := make([]string, 0, len(header))
		row = append(row, strconv.FormatFloat(p, 'g', 6, 64))
		for _, name := range order {
			curve := curves[name]
			if i >= len(curve) {
				return fmt.Errorf("trace: curve %q has %d points, want %d", name, len(curve), len(percentiles))
			}
			row = append(row, strconv.FormatFloat(float64(curve[i])/float64(time.Millisecond), 'f', 3, 64))
		}
		rows = append(rows, row)
	}
	return WriteCSV(path, header, rows)
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
}

// Table renders aligned text tables for terminal reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends one row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
