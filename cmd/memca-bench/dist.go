package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"memca/internal/dsweep"
	"memca/internal/dsweep/coord"
	"memca/internal/figures"
)

// memca-bench's distributed mode re-invokes this binary as shard workers
// through a hidden env-var protocol (no flags, so worker invocations
// can't collide with user flags).
const (
	envWorkerManifest = "MEMCA_BENCH_WORKER_MANIFEST"
	envWorkerShard    = "MEMCA_BENCH_WORKER_SHARD"
)

// maybeRunWorker diverts the process into shard-worker mode when the
// worker env vars are set. Returns true when this invocation was a
// worker (whether it succeeded or not).
func maybeRunWorker() (bool, error) {
	path := os.Getenv(envWorkerManifest)
	if path == "" {
		return false, nil
	}
	m, err := dsweep.LoadManifest(path)
	if err != nil {
		return true, err
	}
	shard, err := strconv.Atoi(os.Getenv(envWorkerShard))
	if err != nil {
		return true, fmt.Errorf("bad %s: %w", envWorkerShard, err)
	}
	return true, figures.RunShard(context.Background(), m, shard, dsweep.ShardOptions{
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "    shard %d: %d/%d\n", shard, done, total)
		},
	})
}

// runDistributedBench handles -shards > 1 and -manifest-out: it builds
// one manifest per driver and either just writes them (for memca-sweep
// to run, possibly on several machines) or coordinates local worker
// subprocesses right here and finalizes the artifacts.
func runDistributedBench(drivers []string, opts figures.Options, shards int, manifestOut string) error {
	for _, driver := range drivers {
		base := filepath.Join(opts.OutDir, "dsweep", driver)
		manifestPath := filepath.Join(base, "manifest.json")
		if manifestOut != "" {
			manifestPath = filepath.Join(manifestOut, driver+".json")
		}
		m, err := figures.NewManifest(driver, opts, shards, filepath.Join(base, "artifacts"))
		if err != nil {
			return err
		}
		if err := dsweep.WriteManifest(manifestPath, m); err != nil {
			return err
		}
		if manifestOut != "" {
			fmt.Printf("wrote %s: %d jobs over %d shards (run with: memca-sweep run -manifest %s)\n",
				manifestPath, m.Jobs, m.Shards, manifestPath)
			continue
		}
		err = timed(driver, func() (string, error) {
			err := coord.Run(context.Background(), coord.Options{
				Manifest: m,
				Worker:   func(shard int) (*exec.Cmd, error) { return benchWorker(manifestPath, shard) },
				Retries:  1,
				Poll:     2 * time.Second,
				Log:      os.Stderr,
			})
			if err != nil {
				return "", err
			}
			_, summary, err := figures.RunDistributed(m)
			return summary, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// benchWorker re-invokes this binary as the worker for one shard.
func benchWorker(manifestPath string, shard int) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envWorkerManifest+"="+manifestPath,
		envWorkerShard+"="+strconv.Itoa(shard),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd, nil
}
