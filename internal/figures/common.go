// Package figures regenerates every table and figure of the paper's
// evaluation: each FigN function runs the corresponding experiment at full
// scale, writes the plot-ready CSV artifacts under an output directory,
// and returns the key scalars so benchmarks and tests can assert the
// paper's qualitative claims (who wins, by what factor, where the
// crossovers fall).
package figures

import (
	"fmt"
	"path/filepath"
	"time"

	"memca/internal/analytical"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/trace"
)

// Options control figure generation.
type Options struct {
	// OutDir receives CSV artifacts; empty disables file output.
	OutDir string
	// Quick shrinks run horizons (~4x) for smoke tests and benchmarks.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Parallel bounds the worker count for multi-run drivers: 0 means
	// one worker per available CPU, 1 runs every job on the calling
	// goroutine. Results and CSV artifacts are byte-identical for every
	// value (see internal/sweep).
	Parallel int
	// Progress, when non-nil, is called after each independent run of a
	// multi-run driver with (completed, total) counts. Completion order
	// is nondeterministic under parallelism; this is a display hook.
	Progress func(done, total int)
}

// duration returns full, or full/4 in quick mode (minimum 20 s).
func (o Options) duration(full time.Duration) time.Duration {
	if !o.Quick {
		return full
	}
	d := full / 4
	if d < 20*time.Second {
		d = 20 * time.Second
	}
	return d
}

// path joins OutDir with name; it returns "" when output is disabled.
func (o Options) path(name string) string {
	if o.OutDir == "" {
		return ""
	}
	return filepath.Join(o.OutDir, name)
}

// writeCSV writes OutDir/name unless output is disabled.
func (o Options) writeCSV(name string, header []string, rows [][]string) error {
	if o.OutDir == "" {
		return nil
	}
	return trace.WriteCSV(o.path(name), header, rows)
}

// writeCurves writes a percentile-curve CSV, one named column per curve,
// unless output is disabled.
func writeCurves(path string, percentiles []float64, names []string, curves [][]time.Duration) error {
	if path == "" {
		return nil
	}
	if len(curves) != len(names) {
		return fmt.Errorf("figures: %d curves for %d names", len(curves), len(names))
	}
	byName := make(map[string][]time.Duration, len(names))
	for i, name := range names {
		byName[name] = curves[i]
	}
	return trace.PercentileCurveCSV(path, percentiles, names, byName)
}

// writeBuckets writes a bucket CSV unless output is disabled.
func writeBuckets(path string, buckets []stats.Bucket) error {
	if path == "" {
		return nil
	}
	return trace.BucketsCSV(path, buckets)
}

// writeSeries writes a raw series CSV unless output is disabled.
func writeSeries(path string, points []stats.Point) error {
	if path == "" {
		return nil
	}
	return trace.SeriesCSV(path, points)
}

// modelNetwork builds the 3-tier queueing network matching the analytical
// RUBBoS model (one class per tier depth, rates from the model), used by
// the model-level experiments of Figures 6 and 7. mode selects tandem or
// RPC coupling; queueLimits overrides the per-tier limits (0 = Infinite).
// retransmit is the sources' TCP retransmission policy; under the zero
// policy drops are final. a backs the network's per-tier stats and the
// sources' client samples (see stats.Arena).
func modelNetwork(e *sim.Engine, a *stats.Arena, mode queueing.Mode, queueLimits [3]int, retransmit queueing.RetransmitPolicy) (*queueing.Network, []*queueing.Source, error) {
	m := analytical.RUBBoS3Tier()
	tiers := make([]queueing.TierConfig, 3)
	const servers = 2
	for i, t := range m.Tiers {
		tiers[i] = queueing.TierConfig{
			Name:       t.Name,
			QueueLimit: queueLimits[i],
			Servers:    servers,
			Service:    sim.NewExponential(time.Duration(float64(servers) / t.CapacityOFF * float64(time.Second))),
		}
	}
	classes := []queueing.Class{
		{Name: "to-apache", Depth: 0},
		{Name: "to-tomcat", Depth: 1},
		{Name: "to-mysql", Depth: 2},
	}
	n, err := queueing.New(e, queueing.Config{Mode: mode, Tiers: tiers, Classes: classes, Retransmit: retransmit, Arena: a})
	if err != nil {
		return nil, nil, err
	}
	sources := make([]*queueing.Source, 0, 3)
	for i, t := range m.Tiers {
		if t.ArrivalRate <= 0 {
			continue
		}
		src, err := queueing.NewPoissonSource(n, queueing.SourceConfig{Class: i, Rate: t.ArrivalRate})
		if err != nil {
			return nil, nil, err
		}
		sources = append(sources, src)
	}
	return n, sources, nil
}

// rubbosTierNames returns the canonical tier labels.
func rubbosTierNames() []string { return []string{"apache", "tomcat", "mysql"} }
