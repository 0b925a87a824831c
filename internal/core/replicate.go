package core

import (
	"context"

	"memca/internal/stats"
	"memca/internal/sweep"
)

// Replication is one independent repetition of an experiment.
type Replication struct {
	// Index is the replication number, 0-based.
	Index int
	// Seed is the derived seed the run used (sweep.DeriveSeed of the
	// base configuration seed and Index).
	Seed int64
	// Report is the run's outcome.
	Report *Report
}

// ReplicateOptions control parallel replication.
type ReplicateOptions struct {
	// Workers bounds the worker count: 0 means one per available CPU,
	// 1 runs every job on the calling goroutine. Results are identical
	// for every value.
	Workers int
	// Progress, when non-nil, is called after each completed run with
	// (completed, total) counts.
	Progress func(done, total int)
}

// Replicate runs the experiment described by cfg `runs` times with
// deterministically derived per-run seeds and returns the replications in
// index order. Replication i always uses sweep.DeriveSeed(cfg.Seed, i),
// so the result set is a pure function of (cfg, runs) — independent of
// worker count and stable across processes.
//
// Each worker carries one stats arena, reset between runs, so the stats
// recording of every replication after the first reuses warm slabs. A
// caller-supplied cfg.Arena is left alone (the caller then owns resets,
// and replications must run serially on it — pass Workers: 1).
func Replicate(ctx context.Context, cfg Config, runs int, opts ReplicateOptions) ([]Replication, error) {
	sweepOpts := sweep.Options{Workers: opts.Workers, Progress: opts.Progress}
	return sweep.RunState(ctx, sweepOpts, runs, stats.GetArena, stats.PutArena,
		func(jobCtx context.Context, arena *stats.Arena, i int) (Replication, error) {
			runCfg := cfg
			runCfg.Seed = sweep.DeriveSeed(cfg.Seed, i)
			if runCfg.Arena == nil {
				runCfg.Arena = arena
				// The Report holds only heap copies, so the worker's arena
				// can be recycled as soon as the run is distilled.
				defer arena.Reset()
			}
			x, err := NewExperiment(runCfg)
			if err != nil {
				return Replication{}, err
			}
			// RunContext honors the sweep's cancellation, so an aborted
			// replication set stops mid-simulation instead of finishing
			// every in-flight multi-minute run.
			rep, err := x.RunContext(jobCtx)
			if err != nil {
				return Replication{}, err
			}
			return Replication{Index: i, Seed: runCfg.Seed, Report: rep}, nil
		})
}
