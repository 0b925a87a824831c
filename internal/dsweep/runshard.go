package dsweep

import (
	"context"
	"errors"
	"fmt"
)

// Job computes the record payload for one global job index. Like
// sweep.StateJob it must be a pure function of the index (randomness only via
// the manifest's seed and sweep.DeriveSeed), so that a shard can run
// anywhere — and rerun after a crash — and produce the same bytes.
type Job func(ctx context.Context, index int) ([]byte, error)

// ErrCrashInjected is returned by RunShard when ShardOptions.MaxRecords
// stopped the worker early — the deterministic stand-in for a kill, used
// by the crash/resume tests and the CI smoke.
var ErrCrashInjected = errors.New("dsweep: injected crash after record budget")

// ShardOptions tune one worker's shard run.
type ShardOptions struct {
	// InjectCrash, when true, stops the run with ErrCrashInjected once
	// MaxRecords records have been appended in this run — MaxRecords may
	// be zero, meaning die right after the durable header. The
	// deterministic stand-in for kill -9 in tests and the CI smoke.
	InjectCrash bool
	// MaxRecords is the record budget when InjectCrash is set; ignored
	// otherwise.
	MaxRecords int
	// Progress, when non-nil, is called after each completed job with
	// the shard's (done, total) counts — done includes records recovered
	// from a previous run.
	Progress func(done, total int)
}

// RunShard executes one shard of the manifest's job sequence, appending a
// record per completed job to the shard artifact with fsync-batched
// checkpoints. It resumes automatically: jobs whose records were
// recovered from a previous run are skipped, a torn trailing record is
// truncated and re-run. The context is checked between jobs; a canceled
// shard can simply be run again.
func RunShard(ctx context.Context, m *Manifest, shard int, job Job, opts ShardOptions) (err error) {
	if job == nil {
		return fmt.Errorf("dsweep: shard job must not be nil")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w, err := openShardWriter(m, shard)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	state := w.state
	if opts.Progress != nil && state.Done > 0 {
		opts.Progress(state.Done, len(state.Indices))
	}
	appended := 0
	for !state.Complete() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if opts.InjectCrash && appended >= opts.MaxRecords {
			return ErrCrashInjected
		}
		index := state.Indices[state.Done]
		payload, err := job(ctx, index)
		if err != nil {
			return fmt.Errorf("dsweep: shard %d job %d: %w", shard, index, err)
		}
		if err := w.append(payload); err != nil {
			return err
		}
		appended++
		if opts.Progress != nil {
			opts.Progress(state.Done, len(state.Indices))
		}
	}
	return nil
}
