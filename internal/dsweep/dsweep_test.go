package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memca/internal/sweep"
)

// testManifest returns a validated manifest over a temp artifact dir.
func testManifest(t *testing.T, jobs, shards, fsyncEvery int) *Manifest {
	t.Helper()
	m := &Manifest{
		Figure:      "synthetic",
		Jobs:        jobs,
		Shards:      shards,
		Seed:        42,
		ArtifactDir: t.TempDir(),
		FsyncEvery:  fsyncEvery,
	}
	path := filepath.Join(m.ArtifactDir, "manifest.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	return loaded
}

// syntheticJob derives a deterministic, variable-length payload from the
// job index and the manifest seed, mimicking an encoded job record.
func syntheticJob(m *Manifest) Job {
	return func(_ context.Context, index int) ([]byte, error) {
		seed := sweep.DeriveSeed(m.Seed, index)
		head := fmt.Sprintf("job-%d-seed-%d|", index, seed)
		return append([]byte(head), bytes.Repeat([]byte{byte(index + 1)}, index%7)...), nil
	}
}

// referenceBytes is the single-process oracle: the merged artifact must
// equal the encoding of every job's payload in index order.
func referenceBytes(t *testing.T, m *Manifest) []byte {
	t.Helper()
	job := syntheticJob(m)
	payloads := make([][]byte, m.Jobs)
	for i := range payloads {
		p, err := job(context.Background(), i)
		if err != nil {
			t.Fatalf("reference job %d: %v", i, err)
		}
		payloads[i] = p
	}
	return sweep.EncodeRecords(payloads)
}

func runAllShards(t *testing.T, m *Manifest) {
	t.Helper()
	for s := 0; s < m.Shards; s++ {
		if err := RunShard(context.Background(), m, s, syntheticJob(m), ShardOptions{}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}

// TestMergeByteIdentityAcrossShardCounts pins the fabric's core claim:
// the merged artifact is byte-identical at shard counts 1, 2, 4, and 8,
// and equal to the single-process encoding of the same jobs.
func TestMergeByteIdentityAcrossShardCounts(t *testing.T) {
	const jobs = 11
	for _, shards := range []int{1, 2, 4, 8} {
		m := testManifest(t, jobs, shards, 2)
		runAllShards(t, m)
		if err := Merge(m); err != nil {
			t.Fatalf("%d shards: merge: %v", shards, err)
		}
		merged, err := os.ReadFile(m.MergedPath())
		if err != nil {
			t.Fatalf("%d shards: reading merged: %v", shards, err)
		}
		if want := referenceBytes(t, m); !bytes.Equal(merged, want) {
			t.Errorf("%d shards: merged artifact differs from single-process encoding", shards)
		}
		payloads, err := ReadMerged(m)
		if err != nil {
			t.Fatalf("%d shards: ReadMerged: %v", shards, err)
		}
		if len(payloads) != jobs {
			t.Errorf("%d shards: ReadMerged returned %d payloads", shards, len(payloads))
		}
	}
}

// TestCrashResumeByteIdentity kills a worker mid-shard (deterministically,
// via crash injection) and resumes it: completed jobs must not re-run, and
// the merged artifact must be byte-identical to the uninterrupted run.
func TestCrashResumeByteIdentity(t *testing.T) {
	m := testManifest(t, 10, 3, 1)
	// Shard 1 owns indices 1, 4, 7: crash after 2 records.
	err := RunShard(context.Background(), m, 1, syntheticJob(m), ShardOptions{InjectCrash: true, MaxRecords: 2})
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crash-injected run: got %v, want ErrCrashInjected", err)
	}
	state, err := RecoverShard(m, 1)
	if err != nil {
		t.Fatalf("RecoverShard after crash: %v", err)
	}
	if state.Done != 2 || state.LastIndex() != 4 {
		t.Fatalf("after crash: done=%d last=%d, want 2 and 4", state.Done, state.LastIndex())
	}
	// Resume counts executed jobs: only the one missing job may run.
	ran := 0
	job := func(ctx context.Context, index int) ([]byte, error) {
		ran++
		return syntheticJob(m)(ctx, index)
	}
	if err := RunShard(context.Background(), m, 1, job, ShardOptions{}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if ran != 1 {
		t.Errorf("resume re-ran %d jobs, want 1 (index 7 only)", ran)
	}
	for _, s := range []int{0, 2} {
		if err := RunShard(context.Background(), m, s, syntheticJob(m), ShardOptions{}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	if err := Merge(m); err != nil {
		t.Fatalf("merge after resume: %v", err)
	}
	merged, err := os.ReadFile(m.MergedPath())
	if err != nil {
		t.Fatalf("reading merged: %v", err)
	}
	if !bytes.Equal(merged, referenceBytes(t, m)) {
		t.Errorf("merged artifact after crash+resume differs from uninterrupted encoding")
	}
}

// TestTruncatedTailDetectedAndRerun cuts the artifact mid-record — the
// torn write of a kill -9 — and checks the codec never merges it: the
// truncated record is detected, re-run on resume, and the final merge is
// byte-identical.
func TestTruncatedTailDetectedAndRerun(t *testing.T) {
	m := testManifest(t, 6, 2, 1)
	runAllShards(t, m)
	art := m.ShardArtifactPath(0)
	data, err := os.ReadFile(art)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	// Cut 3 bytes off the final record's checksum: a torn tail.
	if err := os.WriteFile(art, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("truncating artifact: %v", err)
	}
	state, err := RecoverShard(m, 0)
	if err != nil {
		t.Fatalf("RecoverShard on torn tail: %v", err)
	}
	if state.Complete() {
		t.Fatalf("torn trailing record counted as complete")
	}
	if err := Merge(m); err == nil {
		t.Fatalf("merge accepted a shard with a torn trailing record")
	}
	ran := 0
	job := func(ctx context.Context, index int) ([]byte, error) {
		ran++
		return syntheticJob(m)(ctx, index)
	}
	if err := RunShard(context.Background(), m, 0, job, ShardOptions{}); err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if ran != 1 {
		t.Errorf("resume re-ran %d jobs, want exactly the torn one", ran)
	}
	if err := Merge(m); err != nil {
		t.Fatalf("merge after repair: %v", err)
	}
	merged, err := os.ReadFile(m.MergedPath())
	if err != nil {
		t.Fatalf("reading merged: %v", err)
	}
	if !bytes.Equal(merged, referenceBytes(t, m)) {
		t.Errorf("merged artifact after torn-tail repair differs from reference")
	}
}

// TestCorruptRecordNeverMerged flips a byte inside a completed record:
// recovery must stop trusting the file at that point and a merge must
// refuse, never silently merging rotted bytes.
func TestCorruptRecordNeverMerged(t *testing.T) {
	m := testManifest(t, 6, 2, 1)
	runAllShards(t, m)
	art := m.ShardArtifactPath(0)
	data, err := os.ReadFile(art)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	data[len(data)-5] ^= 0xFF // inside the last record
	if err := os.WriteFile(art, data, 0o644); err != nil {
		t.Fatalf("corrupting artifact: %v", err)
	}
	state, err := RecoverShard(m, 0)
	if err != nil {
		t.Fatalf("RecoverShard on corrupt record: %v", err)
	}
	if state.Complete() {
		t.Fatalf("corrupt record counted as complete")
	}
	if err := Merge(m); err == nil {
		t.Fatalf("merge accepted a corrupt record")
	}
}

// TestMismatchedManifestRefused pins the hash guard in all three places:
// a tampered manifest file refuses to load, a hand-edited Manifest value
// refuses to validate, and shard artifacts written under one manifest
// refuse to serve a different one.
func TestMismatchedManifestRefused(t *testing.T) {
	m := testManifest(t, 4, 2, 1)
	runAllShards(t, m)

	// Tampered manifest file: change a result-determining field.
	path := filepath.Join(m.ArtifactDir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	tampered := bytes.Replace(data, []byte(`"seed": 42`), []byte(`"seed": 43`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatalf("tamper target not found in manifest JSON")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatalf("writing tampered manifest: %v", err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Errorf("tampered manifest loaded cleanly")
	}

	// A different (validly hashed) manifest over the same artifacts: the
	// embedded per-shard hash must refuse both recovery and merge.
	other := &Manifest{
		Figure:      m.Figure,
		Jobs:        m.Jobs,
		Shards:      m.Shards,
		Seed:        m.Seed + 1,
		ArtifactDir: m.ArtifactDir,
		FsyncEvery:  m.FsyncEvery,
	}
	if err := WriteManifest(filepath.Join(m.ArtifactDir, "other.json"), other); err != nil {
		t.Fatalf("writing other manifest: %v", err)
	}
	if _, err := RecoverShard(other, 0); !errors.Is(err, ErrShardArtifact) {
		t.Errorf("recovery under mismatched manifest: got %v, want ErrShardArtifact", err)
	}
	if err := Merge(other); !errors.Is(err, ErrShardArtifact) {
		t.Errorf("merge under mismatched manifest: got %v, want ErrShardArtifact", err)
	}
}

// TestVersionOneManifestRefused pins the schema bump away from gob job
// records: a version-1 manifest, self-consistently hashed as the build
// that wrote it would have, is refused with the version error rather than
// driving workers whose shard artifacts it would misread.
func TestVersionOneManifestRefused(t *testing.T) {
	m := &Manifest{Version: 1, Figure: "fig2", Jobs: 2, Shards: 1, Seed: 7, Quick: true,
		ArtifactDir: t.TempDir(), FsyncEvery: DefaultFsyncEvery}
	m.Hash = m.ComputeHash()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(m.ArtifactDir, "manifest.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("manifest version 1, this build understands %d", ManifestVersion)
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadManifest of a version-1 manifest: got %v, want an error containing %q", err, want)
	}
}

// TestIncompleteShardRefusesMerge pins that a merge never papers over a
// shard that has not finished.
func TestIncompleteShardRefusesMerge(t *testing.T) {
	m := testManifest(t, 5, 2, 1)
	if err := RunShard(context.Background(), m, 0, syntheticJob(m), ShardOptions{}); err != nil {
		t.Fatalf("shard 0: %v", err)
	}
	if err := Merge(m); err == nil {
		t.Fatalf("merge succeeded with shard 1 never run")
	}
}

// TestStatusProgress pins the status surface: the shard artifact is the
// only progress record, so after a clean run RecoverShard reports every
// shard complete and clean at its full size, and an empty shard as 0/0.
func TestStatusProgress(t *testing.T) {
	m := testManifest(t, 5, 3, 1) // shard 2 owns index 2 only; sizes 2,2,1
	runAllShards(t, m)
	for s := 0; s < m.Shards; s++ {
		state, err := RecoverShard(m, s)
		if err != nil {
			t.Fatalf("RecoverShard(%d): %v", s, err)
		}
		want := sweep.ShardSize(m.Jobs, m.Shards, s)
		if state.Done != want || len(state.Indices) != want || !state.Complete() || !state.Clean() {
			t.Errorf("shard %d: %d/%d complete=%v clean=%v, want %d/%d complete and clean",
				s, state.Done, len(state.Indices), state.Complete(), state.Clean(), want, want)
		}
	}
	empty := testManifest(t, 2, 4, 1) // shards 2 and 3 own no jobs
	runAllShards(t, empty)
	state, err := RecoverShard(empty, 3)
	if err != nil {
		t.Fatalf("RecoverShard of the empty shard: %v", err)
	}
	if state.Done != 0 || len(state.Indices) != 0 || !state.Complete() || !state.Clean() {
		t.Errorf("empty shard: %d/%d complete=%v clean=%v, want 0/0 complete and clean",
			state.Done, len(state.Indices), state.Complete(), state.Clean())
	}
}

// TestEmptyShardCompletes pins the more-shards-than-jobs edge: a shard
// with no jobs runs, completes, and merges cleanly.
func TestEmptyShardCompletes(t *testing.T) {
	m := testManifest(t, 2, 4, 1)
	runAllShards(t, m)
	if err := Merge(m); err != nil {
		t.Fatalf("merge with empty shards: %v", err)
	}
	merged, err := os.ReadFile(m.MergedPath())
	if err != nil {
		t.Fatalf("reading merged: %v", err)
	}
	if !bytes.Equal(merged, referenceBytes(t, m)) {
		t.Errorf("merged artifact with empty shards differs from reference")
	}
}
