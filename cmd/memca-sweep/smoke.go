package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"memca/internal/dsweep"
	"memca/internal/dsweep/coord"
	"memca/internal/figures"
)

// smokeDriver is the smoke's figure: four jobs over three shards, so
// shard 0 owns jobs 0 and 3 and its killed worker resumes mid-shard.
const smokeDriver = "ablation-interval"

// cmdSmoke is the CI smoke for the fabric: a quick smokeDriver run
// coordinated across 3 worker subprocesses, with shard 0's worker killed
// after its first record (deterministically, via -crash-after), then
// resumed from that checkpoint; the merged artifact, summary, scalars and
// CSVs are diffed against a single-process run. Any divergence fails the
// command.
func cmdSmoke(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	var (
		dir  = fs.String("dir", "", "scratch directory (default: a fresh temp dir)")
		keep = fs.Bool("keep", false, "keep the scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scratch := *dir
	if scratch == "" {
		var err error
		scratch, err = os.MkdirTemp("", "memca-dsweep-smoke")
		if err != nil {
			return err
		}
	}
	if !*keep {
		defer func() {
			if rerr := os.RemoveAll(scratch); rerr != nil {
				fmt.Fprintln(os.Stderr, "memca-sweep: cleaning scratch:", rerr)
			}
		}()
	}

	const shards = 3
	manifestPath := filepath.Join(scratch, "manifest.json")
	distOut := filepath.Join(scratch, "out-dist")
	opts := figures.Options{OutDir: distOut, Quick: true, Seed: 1}
	m, err := figures.NewManifest(smokeDriver, opts, shards, filepath.Join(scratch, "artifacts"))
	if err != nil {
		return err
	}
	m.FsyncEvery = 1
	if err := dsweep.WriteManifest(manifestPath, m); err != nil {
		return err
	}
	fmt.Printf("smoke: %s, %d jobs over %d shards under %s\n", smokeDriver, m.Jobs, m.Shards, scratch)

	// Round 1: shard 0's worker is killed right after its first durable
	// record (-crash-after 1), with no retries — the coordinated run must
	// fail.
	fmt.Println("smoke: round 1 — killing shard 0's worker mid-shard")
	err = coord.Run(context.Background(), coord.Options{
		Manifest: m,
		Worker: func(shard int) (*exec.Cmd, error) {
			crash := -1
			if shard == 0 {
				crash = 1
			}
			return selfWorker(manifestPath, shard, crash)
		},
		Log: os.Stderr,
	})
	if err == nil {
		return fmt.Errorf("smoke: round 1 succeeded despite the killed worker")
	}
	fmt.Printf("smoke: round 1 failed as intended: %v\n", err)
	if _, err := os.Stat(m.MergedPath()); !os.IsNotExist(err) {
		return fmt.Errorf("smoke: merged artifact exists after the failed round (stat: %v)", err)
	}
	if state, err := dsweep.RecoverShard(m, 0); err != nil || state.Done != 1 {
		return fmt.Errorf("smoke: killed shard 0 must hold exactly 1 durable record (recovery error: %v)", err)
	}

	// Round 2: resume. Complete shards are skipped, the killed shard picks
	// up after its first record, and the merge runs.
	fmt.Println("smoke: round 2 — resuming")
	err = coord.Run(context.Background(), coord.Options{
		Manifest: m,
		Worker:   func(shard int) (*exec.Cmd, error) { return selfWorker(manifestPath, shard, -1) },
		Log:      os.Stderr,
	})
	if err != nil {
		return fmt.Errorf("smoke: resume: %w", err)
	}
	distRes, distSummary, err := figures.RunDistributed(m)
	if err != nil {
		return err
	}
	fmt.Println("smoke:", distSummary)

	// Reference 1: the same driver through a 1-shard fabric run in this
	// process. Its merged artifact must be byte-identical to the 3-shard,
	// kill-and-resume one.
	ref := *m
	ref.Shards = 1
	ref.ArtifactDir = filepath.Join(scratch, "artifacts-ref")
	ref.Hash = ref.ComputeHash()
	if err := figures.RunShard(context.Background(), &ref, 0, dsweep.ShardOptions{}); err != nil {
		return fmt.Errorf("smoke: reference shard: %w", err)
	}
	if err := dsweep.Merge(&ref); err != nil {
		return err
	}
	distBytes, err := os.ReadFile(m.MergedPath())
	if err != nil {
		return err
	}
	refBytes, err := os.ReadFile(ref.MergedPath())
	if err != nil {
		return err
	}
	if !bytes.Equal(distBytes, refBytes) {
		return fmt.Errorf("smoke: merged artifact differs between 3 shards (killed+resumed) and 1 shard: %d vs %d bytes", len(distBytes), len(refBytes))
	}
	fmt.Printf("smoke: merged artifacts byte-identical across shard counts (%d bytes)\n", len(distBytes))

	// Reference 2: the plain in-process run of the driver. Its summary,
	// scalars and CSVs must match the distributed run's exactly.
	singleOut := filepath.Join(scratch, "out-single")
	singleRes, singleSummary, err := figures.RunLocal(smokeDriver, figures.Options{OutDir: singleOut, Quick: true, Seed: 1})
	if err != nil {
		return err
	}
	if distSummary != singleSummary {
		return fmt.Errorf("smoke: distributed summary differs from single-process:\n%s\nvs\n%s", distSummary, singleSummary)
	}
	if dist, single := fmt.Sprintf("%#v", distRes), fmt.Sprintf("%#v", singleRes); dist != single {
		return fmt.Errorf("smoke: distributed scalars %s differ from single-process %s", dist, single)
	}
	entries, err := os.ReadDir(singleOut)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("smoke: single-process run wrote no CSVs under %s", singleOut)
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(singleOut, e.Name()))
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(distOut, e.Name()))
		if err != nil {
			return fmt.Errorf("smoke: distributed run is missing CSV %s: %w", e.Name(), err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("smoke: %s differs between distributed and single-process runs", e.Name())
		}
		fmt.Printf("smoke: %s byte-identical (%d bytes)\n", e.Name(), len(want))
	}
	fmt.Println("smoke: PASS — kill/resume across 3 shards matches single-process byte for byte")
	return nil
}
