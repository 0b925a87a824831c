package figures

import (
	"context"
	"fmt"
	"sort"

	"memca/internal/dsweep"
	"memca/internal/stats"
	"memca/internal/sweep"
)

// DistRun is one figure driver prepared for distributable execution: a
// fixed job count, a pure per-index job producing an encoded record, and
// a finalizer that turns the complete index-ordered record stream back
// into the figure's result and CSV artifacts.
//
// The split is what makes sharding safe: Job never writes files and is a
// pure function of (Options, index) — every worker computes identical
// bytes for an index — while Finalize is the only stage that touches
// OutDir, and runs exactly once on the merged stream. Every in-process
// figure function runs through the same Job/Finalize pair (RunLocal), so
// a distributed run's outputs are byte-identical to theirs by
// construction, not by testing alone.
type DistRun struct {
	// Jobs is the total job count; indices run 0..Jobs-1.
	Jobs int
	// Job computes the record for one index. The arena (never nil) backs
	// the run's stats and is reset by the caller after each job; the
	// returned bytes must not alias it.
	Job func(a *stats.Arena, index int) ([]byte, error)
	// Finalize consumes the records in index order, writes the figure's
	// CSV artifacts (honoring Options.OutDir), and returns the figure's
	// result plus its human summary (newline-separated lines in a fixed
	// order). It is the only stage that writes files.
	Finalize func(payloads [][]byte) (result any, summary string, err error)
}

// DistDriver is a registered figure driver. Every figure, table, and
// study the package regenerates is one, so each runs in-process
// (RunLocal) or sharded (NewManifest, RunShard, RunDistributed) alike.
type DistDriver struct {
	// Name is the manifest key (e.g. "fig2", "ablation-interval").
	Name string
	// New prepares a run for the given options. It is called once per
	// process — expensive pure setup (the planner's Solve pass, say)
	// happens here, not per job.
	New func(Options) (*DistRun, error)
}

// distRegistry holds every distributable driver, keyed by name. Drivers
// register in init functions next to their figure code.
var distRegistry = map[string]DistDriver{}

// registerDist adds a driver; duplicate names are a programming error.
func registerDist(d DistDriver) {
	if _, dup := distRegistry[d.Name]; dup {
		panic(fmt.Sprintf("figures: duplicate dist driver %q", d.Name))
	}
	distRegistry[d.Name] = d
}

// DistDrivers lists the registered driver names, sorted.
func DistDrivers() []string {
	names := make([]string, 0, len(distRegistry))
	for name := range distRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupDist finds a driver by name.
func LookupDist(name string) (DistDriver, bool) {
	d, ok := distRegistry[name]
	return d, ok
}

// newRun builds a driver's DistRun from a typed job and finalizer. Job
// returns a plain value record, which the record codec (record.go)
// encodes before the arena is reset (so anything read from live
// experiment state must be copied into the record inside the job) into a
// scratch buffer the job's arena keeps, and returns an exact-size copy; the
// finalizer sees the records decoded and in index order. A record stream
// of the wrong length or with an undecodable record is rejected before
// the finalizer runs, so a bad merged artifact is an error, never a
// panic. The codec is looked up inside Job and Finalize, never here:
// preparing a driver (NewManifest and newDistRun both do) costs no codec
// work and no allocation beyond the run itself, and each record type's
// codec is built once per process.
func newRun[R any](jobs int, job func(a *stats.Arena, i int) (R, error), finalize func(recs []R) (any, string, error)) *DistRun {
	return &DistRun{
		Jobs: jobs,
		Job: func(a *stats.Arena, i int) ([]byte, error) {
			rec, err := job(a, i)
			if err != nil {
				return nil, err
			}
			buf := a.Keep(recordBufKey{}, func() stats.Recycler { return &recordBuf{} }).(*recordBuf)
			b, err := appendRecord(buf.b[:0], rec)
			if err != nil {
				return nil, err
			}
			buf.b = b
			out := make([]byte, len(b))
			copy(out, b)
			return out, nil
		},
		Finalize: func(payloads [][]byte) (any, string, error) {
			if len(payloads) != jobs {
				return nil, "", fmt.Errorf("figures: got %d job records, want %d", len(payloads), jobs)
			}
			recs := make([]R, jobs)
			for i, data := range payloads {
				if err := decodeRecord(data, &recs[i]); err != nil {
					return nil, "", fmt.Errorf("record %d: %w", i, err)
				}
			}
			return finalize(recs)
		},
	}
}

// recordBuf is the record encoder's scratch buffer, kept in a job's arena
// so its capacity carries over to the arena's next job.
type recordBuf struct{ b []byte }

// recordBufKey keys the recordBuf in an arena.
type recordBufKey struct{}

// Recycle keeps the buffer: its bytes are dead once Job has copied them.
func (*recordBuf) Recycle() {}

// RunLocal executes a registered driver fully in-process and returns its
// result and human summary. This is the one place jobs fan out: over the
// sweep engine with one stats arena per worker, reset after every job, so
// each run after a worker's first records into warm slabs. Every figure
// function is a typed wrapper over it.
func RunLocal(name string, o Options) (any, string, error) {
	d, ok := LookupDist(name)
	if !ok {
		return nil, "", fmt.Errorf("figures: no dist driver %q (have %v)", name, DistDrivers())
	}
	r, err := d.New(o)
	if err != nil {
		return nil, "", err
	}
	payloads, err := runLocalJobs(o, r)
	if err != nil {
		return nil, "", err
	}
	return r.Finalize(payloads)
}

// runLocalJobs computes every job record of r in index order.
func runLocalJobs(o Options, r *DistRun) ([][]byte, error) {
	opts := sweep.Options{Workers: o.Parallel, Progress: o.Progress}
	return sweep.RunState(context.Background(), opts, r.Jobs, stats.GetArena, stats.PutArena,
		func(_ context.Context, a *stats.Arena, i int) ([]byte, error) {
			defer a.Reset()
			return r.Job(a, i)
		})
}

// runAs runs a driver in-process and returns its typed result.
func runAs[T any](name string, o Options) (T, error) {
	res, _, err := RunLocal(name, o)
	if err != nil {
		var zero T
		return zero, err
	}
	return res.(T), nil
}

// DistOptions reconstructs the figure Options a manifest's jobs run
// under. Only result-determining fields and the output directory travel
// through the manifest; parallelism and progress belong to the process
// running the jobs.
func DistOptions(m *dsweep.Manifest) Options {
	return Options{OutDir: m.OutDir, Quick: m.Quick, Seed: m.Seed}
}

// NewManifest builds (without writing) a manifest for a distributed run
// of the named driver, with the job count filled in by preparing the
// driver once.
func NewManifest(figure string, o Options, shards int, artifactDir string) (*dsweep.Manifest, error) {
	d, ok := LookupDist(figure)
	if !ok {
		return nil, fmt.Errorf("figures: no dist driver %q (have %v)", figure, DistDrivers())
	}
	r, err := d.New(o)
	if err != nil {
		return nil, err
	}
	return &dsweep.Manifest{
		Figure:      figure,
		Jobs:        r.Jobs,
		Shards:      shards,
		Seed:        o.Seed,
		Quick:       o.Quick,
		OutDir:      o.OutDir,
		ArtifactDir: artifactDir,
	}, nil
}

// newDistRun prepares the manifest's driver in this process and checks
// the manifest's job count against it, catching manifests generated by a
// build with a different grid.
func newDistRun(m *dsweep.Manifest) (*DistRun, error) {
	d, ok := LookupDist(m.Figure)
	if !ok {
		return nil, fmt.Errorf("figures: manifest names unknown dist driver %q (have %v)", m.Figure, DistDrivers())
	}
	r, err := d.New(DistOptions(m))
	if err != nil {
		return nil, err
	}
	if r.Jobs != m.Jobs {
		return nil, fmt.Errorf("figures: driver %q has %d jobs, manifest says %d — manifest from a different build?", m.Figure, r.Jobs, m.Jobs)
	}
	return r, nil
}

// RunShard runs one shard of a manifest in this process: the worker half
// of the fabric. It keeps the arena story intact — one arena for the
// whole worker process, reset after every job, so each job after the
// first records into warm slabs (the per-worker equivalent of
// sweep.RunState in the in-process path). Resume is automatic via the
// shard artifact.
func RunShard(ctx context.Context, m *dsweep.Manifest, shard int, opts dsweep.ShardOptions) error {
	r, err := newDistRun(m)
	if err != nil {
		return err
	}
	a := stats.GetArena()
	defer stats.PutArena(a)
	return dsweep.RunShard(ctx, m, shard, func(_ context.Context, index int) ([]byte, error) {
		defer a.Reset()
		return r.Job(a, index)
	}, opts)
}

// RunDistributed finalizes a distributed run from its merged artifact:
// it decodes the index-ordered records, writes the figure's CSV
// artifacts into the manifest's OutDir, and returns the figure result
// with its summary. Merge must have completed first.
func RunDistributed(m *dsweep.Manifest) (any, string, error) {
	r, err := newDistRun(m)
	if err != nil {
		return nil, "", err
	}
	payloads, err := dsweep.ReadMerged(m)
	if err != nil {
		return nil, "", err
	}
	return r.Finalize(payloads)
}
