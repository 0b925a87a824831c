// Command memca-sweep drives the distributed sweep fabric: sharded
// multi-process figure runs with a job manifest, checkpoint/resume, and a
// merge that is byte-identical to a single-process run.
//
// Usage:
//
//	memca-sweep plan -figure fig2 -shards 4 -manifest m.json   # write a manifest
//	memca-sweep run -manifest m.json                           # coordinate workers, merge, finalize
//	memca-sweep worker -manifest m.json -shard 1               # run one shard (what run spawns)
//	memca-sweep resume -manifest m.json                        # finish a killed run (alias of run)
//	memca-sweep status -manifest m.json                        # per-shard progress
//	memca-sweep merge -manifest m.json                         # merge + finalize without spawning workers
//	memca-sweep smoke                                          # CI smoke: kill a worker, resume, diff
//
// Shard artifacts double as checkpoints: a killed worker (or a killed
// run) resumes from its last fsynced record, and the merged artifact is
// byte-identical to a single-process run at any shard count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"memca/internal/dsweep"
	"memca/internal/dsweep/coord"
	"memca/internal/figures"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "memca-sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand: plan, run, worker, resume, status, merge, or smoke")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "plan":
		return cmdPlan(rest)
	case "run", "resume":
		// resume is run: the coordinator only spawns incomplete shards and
		// workers pick up from their last durable record, so rerunning
		// after a kill is exactly a resume.
		return cmdRun(rest)
	case "worker":
		return cmdWorker(rest)
	case "status":
		return cmdStatus(rest)
	case "merge":
		return cmdMerge(rest)
	case "smoke":
		return cmdSmoke(rest)
	default:
		return fmt.Errorf("unknown subcommand %q: want plan, run, worker, resume, status, merge, or smoke", cmd)
	}
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var (
		figure    = fs.String("figure", "", "dist driver to run (one of "+fmt.Sprint(figures.DistDrivers())+")")
		shards    = fs.Int("shards", 1, "worker shard count")
		seed      = fs.Int64("seed", 1, "simulation seed")
		quick     = fs.Bool("quick", false, "shorter horizons for a smoke run")
		out       = fs.String("out", "out", "output directory for the figure's CSV artifacts")
		artifacts = fs.String("artifacts", "", "directory for shard artifacts (default: <manifest dir>/artifacts)")
		fsync     = fs.Int("fsync-every", dsweep.DefaultFsyncEvery, "checkpoint batch: fsync after this many records")
		manifest  = fs.String("manifest", "manifest.json", "manifest file to write")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *figure == "" {
		return fmt.Errorf("plan: -figure is required (one of %v)", figures.DistDrivers())
	}
	dir := *artifacts
	if dir == "" {
		dir = filepath.Join(filepath.Dir(*manifest), "artifacts")
	}
	opts := figures.Options{OutDir: *out, Quick: *quick, Seed: *seed}
	m, err := figures.NewManifest(*figure, opts, *shards, dir)
	if err != nil {
		return err
	}
	m.FsyncEvery = *fsync
	if err := dsweep.WriteManifest(*manifest, m); err != nil {
		return err
	}
	fmt.Printf("wrote %s: driver %s, %d jobs over %d shards (hash %.12s)\n", *manifest, m.Figure, m.Jobs, m.Shards, m.Hash)
	return nil
}

// selfWorker builds the worker subprocess command for one shard:
// this executable re-invoked in worker mode. crashAfter >= 0 injects a
// deterministic crash after that many records (the smoke's kill).
func selfWorker(manifestPath string, shard, crashAfter int) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	args := []string{"worker", "-manifest", manifestPath, "-shard", fmt.Sprint(shard)}
	if crashAfter >= 0 {
		args = append(args, "-crash-after", fmt.Sprint(crashAfter))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		manifest = fs.String("manifest", "manifest.json", "manifest file")
		retries  = fs.Int("retries", 1, "respawns per dead shard before giving up")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := dsweep.LoadManifest(*manifest)
	if err != nil {
		return err
	}
	err = coord.Run(context.Background(), coord.Options{
		Manifest: m,
		Worker:   func(shard int) (*exec.Cmd, error) { return selfWorker(*manifest, shard, -1) },
		Retries:  *retries,
		Log:      os.Stderr,
	})
	if err != nil {
		return err
	}
	return finalize(m)
}

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	var (
		manifest   = fs.String("manifest", "manifest.json", "manifest file")
		shard      = fs.Int("shard", 0, "shard to run")
		crashAfter = fs.Int("crash-after", -1, "inject a crash after N records (tests and smoke; <0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := dsweep.LoadManifest(*manifest)
	if err != nil {
		return err
	}
	opts := dsweep.ShardOptions{
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "worker shard %d: %d/%d\n", *shard, done, total)
		},
	}
	if *crashAfter >= 0 {
		opts.InjectCrash = true
		opts.MaxRecords = *crashAfter
	}
	return figures.RunShard(context.Background(), m, *shard, opts)
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	manifest := fs.String("manifest", "manifest.json", "manifest file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := dsweep.LoadManifest(*manifest)
	if err != nil {
		return err
	}
	fmt.Printf("driver %s: %d jobs over %d shards (hash %.12s)\n", m.Figure, m.Jobs, m.Shards, m.Hash)
	done := 0
	for s := 0; s < m.Shards; s++ {
		// The artifact is the only progress record; its age is the time
		// since the shard's last record, not proof that a worker lives.
		state, err := dsweep.RecoverShard(m, s)
		if err != nil {
			return err
		}
		done += state.Done
		age := "-"
		if info, err := os.Stat(m.ShardArtifactPath(s)); err == nil {
			age = time.Since(info.ModTime()).Round(time.Second).String()
		}
		word := "incomplete" // missing records, or a torn tail to repair
		if state.Complete() && state.Clean() {
			word = "complete"
		}
		fmt.Printf("  shard %d: %d/%d %-10s last index %d, artifact age %s\n",
			s, state.Done, len(state.Indices), word, state.LastIndex(), age)
	}
	fmt.Printf("total: %d/%d jobs\n", done, m.Jobs)
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	manifest := fs.String("manifest", "manifest.json", "manifest file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := dsweep.LoadManifest(*manifest)
	if err != nil {
		return err
	}
	if err := dsweep.Merge(m); err != nil {
		return err
	}
	return finalize(m)
}

// finalize decodes the merged artifact through the driver's finalizer,
// writing the figure's CSVs and printing its summary line.
func finalize(m *dsweep.Manifest) error {
	_, summary, err := figures.RunDistributed(m)
	if err != nil {
		return err
	}
	fmt.Println(summary)
	if m.OutDir != "" {
		fmt.Printf("artifacts written under %s/\n", m.OutDir)
	}
	return nil
}
