package figures

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"memca/internal/dsweep"
	"memca/internal/sweep"
)

// distEquivalenceDrivers get the full shard ladder and the kill/resume
// test: a small multi-job figure, one ablation sweep, and the planner
// validation (the largest job grid). Every other driver is pinned at
// distShards.
var distEquivalenceDrivers = []string{"fig7", "ablation-interval", "planner"}

// distShards is the shard count every driver is checked at: more shards
// than most drivers have jobs, so empty shards must merge too.
const distShards = 3

// distShardCounts cover the serial case, the power-of-two ladder, and
// more shards than some drivers have jobs.
var distShardCounts = []int{1, 2, 4, 8}

// reference is one driver's canonical in-process run (quick, seed 7,
// serial): the merged encoding of its job records and its finalized
// scalars, summary, and CSV artifacts.
type reference struct {
	merged  []byte
	print   string
	summary string
	files   map[string][]byte
}

var (
	referencesMu sync.Mutex
	references   = map[string]*reference{}
)

// localReference runs a driver fully in-process once per test binary and
// shares the result between the worker and shard equivalence suites.
func localReference(t *testing.T, name string) *reference {
	t.Helper()
	referencesMu.Lock()
	defer referencesMu.Unlock()
	if ref, ok := references[name]; ok {
		return ref
	}
	d, ok := LookupDist(name)
	if !ok {
		t.Fatalf("no dist driver %q", name)
	}
	dir, err := os.MkdirTemp("", "figures-ref-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	o := Options{OutDir: dir, Quick: true, Seed: 7, Parallel: 1}
	r, err := d.New(o)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := runLocalJobs(o, r)
	if err != nil {
		t.Fatal(err)
	}
	res, summary, err := r.Finalize(payloads)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{
		merged:  sweep.EncodeRecords(payloads),
		print:   fingerprint(res),
		summary: summary,
		files:   readArtifacts(t, dir),
	}
	if len(ref.files) == 0 {
		t.Fatalf("%s reference run wrote no artifacts", name)
	}
	references[name] = ref
	return ref
}

// writeDistManifest builds and persists a manifest for the driver into a
// fresh temp dir, returning the stamped (hashed) manifest.
func writeDistManifest(t *testing.T, name string, o Options, shards int) *dsweep.Manifest {
	t.Helper()
	dir := t.TempDir()
	m, err := NewManifest(name, o, shards, filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dsweep.WriteManifest(filepath.Join(dir, "manifest.json"), m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runAllShards runs every shard of the manifest concurrently (each shard
// is an independent worker with its own artifact file and arena).
func runAllShards(t *testing.T, m *dsweep.Manifest) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, m.Shards)
	for s := 0; s < m.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = RunShard(context.Background(), m, s, dsweep.ShardOptions{})
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}

// TestDistShardEquivalence pins the fabric's core contract at the figure
// level: the merged artifact is byte-identical to the canonical encoding
// of an in-process run, and the finalized scalars, summary, and CSV
// artifacts are identical too — for every registered driver at distShards,
// and across the full ladder for distEquivalenceDrivers. A regression
// here means the shard plan, the record codec, or a driver's job purity
// (a record aliasing state the arena reset reclaimed) leaked into results.
func TestDistShardEquivalence(t *testing.T) {
	for _, name := range DistDrivers() {
		name := name
		counts := []int{distShards}
		if slices.Contains(distEquivalenceDrivers, name) {
			counts = append(counts, distShardCounts...)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := localReference(t, name)
			for _, shards := range counts {
				outDir := t.TempDir()
				m := writeDistManifest(t, name, Options{OutDir: outDir, Quick: true, Seed: 7}, shards)
				runAllShards(t, m)
				if err := dsweep.Merge(m); err != nil {
					t.Fatalf("%s with %d shards: merge: %v", name, shards, err)
				}
				merged, err := os.ReadFile(m.MergedPath())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(merged, ref.merged) {
					t.Errorf("%s with %d shards: merged artifact differs from in-process run (%d vs %d bytes)",
						name, shards, len(merged), len(ref.merged))
				}
				res, summary, err := RunDistributed(m)
				if err != nil {
					t.Fatalf("%s with %d shards: finalize: %v", name, shards, err)
				}
				if got := fingerprint(res); got != ref.print {
					t.Errorf("%s with %d shards: scalars differ:\n%s\nvs\n%s", name, shards, got, ref.print)
				}
				if summary != ref.summary {
					t.Errorf("%s with %d shards: summary differs:\n%s\nvs\n%s", name, shards, summary, ref.summary)
				}
				compareArtifacts(t, fmt.Sprintf("%s with %d shards", name, shards), ref.files, readArtifacts(t, outDir))
			}
		})
	}
}

// TestDistKillResumeEquivalence kills one worker mid-shard (the
// deterministic injected crash standing in for kill -9), verifies the
// partial state refuses to merge, resumes the shard, and requires the
// final merged artifact and CSVs to be byte-identical to an in-process
// run — the crash must leave no trace in the results.
func TestDistKillResumeEquivalence(t *testing.T) {
	for _, name := range distEquivalenceDrivers {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := localReference(t, name)

			const shards = 3
			outDir := t.TempDir()
			m := writeDistManifest(t, name, Options{OutDir: outDir, Quick: true, Seed: 7}, shards)

			// Kill shard 0 partway: after one record when it owns several
			// jobs, right after the durable header when it owns one.
			budget := 0
			if sweep.ShardSize(m.Jobs, m.Shards, 0) > 1 {
				budget = 1
			}
			err := RunShard(context.Background(), m, 0, dsweep.ShardOptions{InjectCrash: true, MaxRecords: budget})
			if !errors.Is(err, dsweep.ErrCrashInjected) {
				t.Fatalf("crashing run returned %v, want ErrCrashInjected", err)
			}
			for s := 1; s < shards; s++ {
				if err := RunShard(context.Background(), m, s, dsweep.ShardOptions{}); err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
			}
			if err := dsweep.Merge(m); err == nil {
				t.Fatal("merge succeeded with a crashed, incomplete shard")
			}

			// Resume: the worker picks up from the durable checkpoint.
			recovered := -1
			err = RunShard(context.Background(), m, 0, dsweep.ShardOptions{
				Progress: func(done, total int) {
					if recovered < 0 {
						recovered = done
					}
				},
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if budget > 0 && recovered < budget {
				t.Errorf("resume re-ran checkpointed jobs: first progress %d, want >= %d", recovered, budget)
			}
			if err := dsweep.Merge(m); err != nil {
				t.Fatalf("merge after resume: %v", err)
			}
			merged, err := os.ReadFile(m.MergedPath())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, ref.merged) {
				t.Errorf("%s: merged artifact after kill+resume differs from in-process run", name)
			}
			res, _, err := RunDistributed(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != ref.print {
				t.Errorf("%s: scalars after kill+resume differ:\n%s\nvs\n%s", name, got, ref.print)
			}
			for fname, want := range ref.files {
				got, err := os.ReadFile(filepath.Join(outDir, fname))
				if err != nil {
					t.Errorf("%s: missing artifact %s after kill+resume: %v", name, fname, err)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: artifact %s differs after kill+resume", name, fname)
				}
			}
		})
	}
}

// TestDistFinalizeRejectsBadRecords pins every driver's finalizer against
// a record stream it cannot trust (a merged artifact read back from
// disk): too few records, undecodable records, and — for fig2, whose
// finalizer indexes per-tier data — well-formed records of the wrong
// shape must each be an error, never a panic.
func TestDistFinalizeRejectsBadRecords(t *testing.T) {
	garbage := func(n int) [][]byte {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte("not a job record")
		}
		return payloads
	}
	fig2NoTiers, err := appendRecord(nil, fig2Record{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range DistDrivers() {
		d, _ := LookupDist(name)
		r, err := d.New(Options{Quick: true, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases := map[string][][]byte{
			"short":   garbage(r.Jobs)[1:],
			"garbage": garbage(r.Jobs),
		}
		if name == "fig2" {
			cases["no tiers"] = [][]byte{fig2NoTiers}
		}
		for what, payloads := range cases {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s: %s records: Finalize panicked: %v", name, what, p)
					}
				}()
				if _, _, err := r.Finalize(payloads); err == nil {
					t.Errorf("%s: %s records: Finalize returned no error", name, what)
				}
			}()
		}
	}
}
