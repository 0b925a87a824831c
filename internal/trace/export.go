// Package trace exports experiment artifacts: CSV series for each figure,
// JSON reports, and aligned text tables for terminal output.
package trace

import (
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
func WriteCSV(path string, header []string, rows [][]string) error {
	a, err := Create(path, CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(AppendCSVRecord(a.Line(), header))
	for _, row := range rows {
		a.Put(AppendCSVRecord(a.Line(), row))
	}
	return a.Close()
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
	a, err := Create(path, CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(append(a.Line(), "start_s,mean,max,min,count\n"...))
	for i := range buckets {
		bk := &buckets[i]
		b := appendSeconds(a.Line(), bk.Start)
		b = strconv.AppendFloat(append(b, ','), bk.Mean, 'g', 8, 64)
		b = strconv.AppendFloat(append(b, ','), bk.Max, 'g', 8, 64)
		b = strconv.AppendFloat(append(b, ','), bk.Min, 'g', 8, 64)
		b = strconv.AppendInt(append(b, ','), int64(bk.Count), 10)
		a.Put(append(b, '\n'))
	}
	return a.Close()
}

// SeriesCSV exports the points of a raw time series as (t_s, value).
func SeriesCSV(path string, points []stats.Point) error {
	a, err := Create(path, CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(append(a.Line(), "t_s,value\n"...))
	for _, p := range points {
		b := appendSeconds(a.Line(), p.T)
		b = strconv.AppendFloat(append(b, ','), p.V, 'g', 8, 64)
		a.Put(append(b, '\n'))
	}
	return a.Close()
}

// PercentileCurveCSV exports percentile curves, the format of the
// paper's Figures 2 and 7: one column per curve, headed by its name. A
// missing or short curve is an error, reported before the file is
// created.
func PercentileCurveCSV(path string, percentiles []float64, names []string, curves [][]time.Duration) error {
	if len(curves) != len(names) {
		return fmt.Errorf("trace: %d curves for %d names", len(curves), len(names))
	}
	header := make([]string, 0, len(names)+1)
	header = append(header, "percentile")
	for i, name := range names {
		if len(curves[i]) < len(percentiles) {
			return fmt.Errorf("trace: curve %q has %d points, want %d", name, len(curves[i]), len(percentiles))
		}
		header = append(header, name+"_ms")
	}
	a, err := Create(path, CSVBuffer)
	if err != nil {
		return err
	}
	a.Put(AppendCSVRecord(a.Line(), header))
	for i, p := range percentiles {
		b := strconv.AppendFloat(a.Line(), p, 'g', 6, 64)
		for _, curve := range curves {
			b = strconv.AppendFloat(append(b, ','), float64(curve[i])/float64(time.Millisecond), 'f', 3, 64)
		}
		a.Put(append(b, '\n'))
	}
	return a.Close()
}

func appendSeconds(b []byte, d time.Duration) []byte {
	return strconv.AppendFloat(b, d.Seconds(), 'f', 6, 64)
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
