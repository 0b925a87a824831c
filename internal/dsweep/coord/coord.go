// Package coord is the process-orchestration half of the distributed
// sweep fabric: it spawns one worker subprocess per shard, retries shards
// whose workers die, and merges the shard artifacts once every shard is
// complete. Each worker reports its own progress; the shard artifact is
// the only progress record.
//
// Everything that determines results — shard math, record framing,
// recovery, merging — lives in internal/dsweep and never touches the
// clock; this package only runs processes and decides whether to
// respawn, which is why it (alone) sits on the wall-clock side of the
// boundary.
package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"

	"memca/internal/dsweep"
)

// Options configure one coordinated run.
type Options struct {
	// Manifest is the validated job manifest the workers run under.
	Manifest *dsweep.Manifest
	// Worker builds the subprocess command for one shard (typically the
	// current executable re-invoked in worker mode with the manifest
	// path and -shard). Required. The command's stdout/stderr are the
	// caller's to wire.
	Worker func(shard int) (*exec.Cmd, error)
	// Retries is how many times a dead shard worker is respawned before
	// the run gives up on it. Respawned workers resume from the shard's
	// durable checkpoint, so a retry never repeats completed work.
	Retries int
	// Log, when non-nil, receives human-readable progress lines. Run
	// serializes its writes, so Log need not be safe for concurrent use.
	Log io.Writer
}

// Run coordinates a full distributed sweep: it recovers every shard's
// durable state, spawns workers only for incomplete shards (so a rerun
// after a kill is automatically a resume), retries dead workers up to
// Retries times, and — once every shard is complete — merges the
// artifacts into the manifest's merged file. The merge is not reached
// unless every shard succeeded.
func Run(ctx context.Context, o Options) error {
	m := o.Manifest
	if m == nil {
		return fmt.Errorf("coord: options need a manifest")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if o.Worker == nil {
		return fmt.Errorf("coord: options need a worker command builder")
	}
	if o.Log != nil {
		// The per-shard goroutines log concurrently.
		o.Log = &lockedWriter{w: o.Log}
	}

	pending, err := incompleteShards(m)
	if err != nil {
		return err
	}
	if len(pending) > 0 {
		o.logf("coord: %d/%d shards incomplete, spawning workers", len(pending), m.Shards)

		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()

		var wg sync.WaitGroup
		errs := make([]error, len(pending))
		for k, shard := range pending {
			wg.Add(1)
			go func(k, shard int) {
				defer wg.Done()
				if err := runShardWorker(runCtx, o, shard); err != nil {
					errs[k] = err
					cancel() // a lost shard fails the run; stop the others early
				}
			}(k, shard)
		}
		wg.Wait()
		// Prefer the shard failure that caused the cancellation over the
		// context.Canceled its siblings died with.
		var firstErr error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
				firstErr = err
			}
		}
		if firstErr != nil {
			return firstErr
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	if err := dsweep.Merge(m); err != nil {
		return err
	}
	o.logf("coord: merged %d jobs from %d shards into %s", m.Jobs, m.Shards, m.MergedPath())
	return nil
}

// runShardWorker spawns (and respawns, up to Retries) the worker process
// for one shard until the shard's artifact is complete.
func runShardWorker(ctx context.Context, o Options, shard int) error {
	m := o.Manifest
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cmd, err := o.Worker(shard)
		if err != nil {
			return fmt.Errorf("coord: building worker command for shard %d: %w", shard, err)
		}
		o.logf("coord: shard %d attempt %d: %s", shard, attempt+1, strings.Join(cmd.Args, " "))
		runErr := runCmd(ctx, cmd)

		// Trust the artifact, not the exit code: a worker that completed
		// its shard and then died while exiting still counts.
		state, recErr := dsweep.RecoverShard(m, shard)
		if recErr != nil {
			return recErr
		}
		if state.Complete() && state.Clean() {
			if runErr != nil {
				o.logf("coord: shard %d complete despite worker error: %v", shard, runErr)
			}
			return nil
		}
		if runErr == nil {
			return fmt.Errorf("coord: shard %d worker exited cleanly but left %d/%d records",
				shard, state.Done, len(state.Indices))
		}
		if attempt >= o.Retries {
			return fmt.Errorf("coord: shard %d dead after %d attempt(s), %d/%d records durable (resume with `memca-sweep resume`): %w",
				shard, attempt+1, state.Done, len(state.Indices), runErr)
		}
		o.logf("coord: shard %d worker died (%v), retrying from checkpoint %d/%d",
			shard, runErr, state.Done, len(state.Indices))
	}
}

// runCmd runs a worker to completion, killing it if ctx is canceled.
func runCmd(ctx context.Context, cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("coord: starting worker: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// A worker that exited as ctx was canceled is already reaped, and
		// Kill reports ErrProcessDone: a normal exit, not a kill failure.
		if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return fmt.Errorf("coord: killing worker after cancel: %w", err)
		}
		<-done
		return ctx.Err()
	}
}

// incompleteShards lists the shards that still need a worker — missing
// records, or a torn tail to repair — in ascending order.
func incompleteShards(m *dsweep.Manifest) ([]int, error) {
	var pending []int
	for s := 0; s < m.Shards; s++ {
		state, err := dsweep.RecoverShard(m, s)
		if err != nil {
			return nil, err
		}
		if !state.Complete() || !state.Clean() {
			pending = append(pending, s)
		}
	}
	return pending, nil
}

// lockedWriter serializes writes to a log sink that need not be safe
// for concurrent use.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// logf writes a progress line when a log sink is configured. Logging is
// best-effort by design: a broken log pipe must not kill a coordinated
// run whose workers are fine.
func (o Options) logf(format string, args ...any) {
	if o.Log == nil {
		return
	}
	_, _ = fmt.Fprintf(o.Log, format+"\n", args...)
}
