// Package dsweep is the distributed execution fabric layered on
// internal/sweep: it runs one sweep's jobs across multiple worker
// processes and merges their results back into a stream that is
// byte-identical to what a single-process sweep.RunState would have produced.
//
// The fabric has three pieces:
//
//   - a job manifest (Manifest): a JSON spec naming the figure driver,
//     its configuration, the base seed, the total job count, and the
//     shard plan, carrying a content hash so results from mismatched
//     manifests can never be merged;
//   - shard artifact files: each worker owns the shard
//     {i : i mod shards == s} (sweep.ShardIndices) and appends one
//     self-validating, index-keyed record per completed job (see
//     sweep.AppendRecord),
//     fsyncing in batches — the artifact doubles as the checkpoint, so a
//     killed worker resumes from its last durable record;
//   - a merge (Merge): once every shard is complete, the records are
//     reassembled in job-index order into a merged artifact whose bytes
//     are independent of the shard count.
//
// Everything here is deterministic — shard math, record framing, hashing,
// merging — and never reads the wall clock or any RNG; the package sits
// on the simulated side of the clock boundary like internal/sweep itself.
// Process orchestration (spawning workers on real time, retrying dead
// shards) lives in dsweep/coord.
package dsweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestVersion is the current manifest schema version. It participates
// in the content hash, so artifacts from different schema generations
// never merge. Version 2 is the first whose job records are the figures
// record codec's bytes; version 1 artifacts hold gob records.
const ManifestVersion = 2

// DefaultFsyncEvery is the default checkpoint batch: the artifact file is
// fsynced after every batch of this many records (and always at shard
// completion). Smaller batches lose less work to a kill; larger batches
// cost fewer synchronous disk waits on many-job shards.
const DefaultFsyncEvery = 8

// Manifest is the job spec a distributed sweep runs under. One manifest
// describes one figure-driver invocation: which driver, how many jobs,
// the seed and horizon options the jobs are a pure function of, and how
// the job indices are sharded across worker processes. Workers and the
// coordinator all load the same manifest file; the content hash ties
// every shard artifact to it.
type Manifest struct {
	// Version is the manifest schema version (ManifestVersion).
	Version int `json:"version"`
	// Figure names the registered distributable driver (see
	// figures.DistDrivers).
	Figure string `json:"figure"`
	// Jobs is the total job count; job indices run 0..Jobs-1.
	Jobs int `json:"jobs"`
	// Shards is the shard count: shard s owns the job indices with
	// i mod Shards == s (sweep.ShardIndices).
	Shards int `json:"shards"`
	// Seed is the base seed every job derives its randomness from.
	Seed int64 `json:"seed"`
	// Quick selects the shortened experiment horizons (figures.Options).
	Quick bool `json:"quick"`
	// OutDir receives the figure's CSV artifacts at finalize time; only
	// the merge/finalize step writes there, never the workers.
	OutDir string `json:"out_dir"`
	// ArtifactDir holds the per-shard artifacts and the merged file.
	ArtifactDir string `json:"artifact_dir"`
	// FsyncEvery is the checkpoint batch size in records (>= 1).
	FsyncEvery int `json:"fsync_every"`
	// Hash is the hex SHA-256 content hash over the result-determining
	// fields (see ComputeHash); it is embedded in every shard artifact so
	// artifacts from a different manifest can never be merged.
	Hash string `json:"hash"`
}

// ComputeHash returns the manifest's content hash: SHA-256 over a
// canonical rendering of the fields that determine the sweep's results
// and shard layout (version, figure, jobs, shards, seed, quick). Output
// and scratch locations (OutDir, ArtifactDir) and durability tuning
// (FsyncEvery) deliberately stay outside the hash — moving artifacts or
// changing the fsync cadence does not change what the jobs compute.
func (m *Manifest) ComputeHash() string {
	canonical := fmt.Sprintf("memca-dsweep|v%d|figure=%s|jobs=%d|shards=%d|seed=%d|quick=%t",
		m.Version, m.Figure, m.Jobs, m.Shards, m.Seed, m.Quick)
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// Validate checks structural invariants and that the embedded hash
// matches the content: a manifest edited after the fact (or corrupted)
// refuses to drive workers or merges.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("dsweep: manifest version %d, this build understands %d", m.Version, ManifestVersion)
	}
	if m.Figure == "" {
		return fmt.Errorf("dsweep: manifest names no figure driver")
	}
	if m.Jobs < 1 {
		return fmt.Errorf("dsweep: manifest job count must be positive, got %d", m.Jobs)
	}
	if m.Shards < 1 {
		return fmt.Errorf("dsweep: manifest shard count must be positive, got %d", m.Shards)
	}
	if m.FsyncEvery < 1 {
		return fmt.Errorf("dsweep: manifest fsync batch must be positive, got %d", m.FsyncEvery)
	}
	if m.ArtifactDir == "" {
		return fmt.Errorf("dsweep: manifest has no artifact directory")
	}
	if want := m.ComputeHash(); m.Hash != want {
		return fmt.Errorf("dsweep: manifest hash %.12s does not match content hash %.12s — refusing to run or merge", m.Hash, want)
	}
	return nil
}

// WriteManifest stamps the version and content hash and writes the
// manifest as indented JSON, atomically (write-then-rename), creating
// parent directories.
func WriteManifest(path string, m *Manifest) error {
	m.Version = ManifestVersion
	if m.FsyncEvery == 0 {
		m.FsyncEvery = DefaultFsyncEvery
	}
	m.Hash = m.ComputeHash()
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("dsweep: marshaling manifest: %w", err)
	}
	return atomicWrite(path, append(data, '\n'))
}

// LoadManifest reads and validates a manifest file; a bad or tampered
// hash is a hard error.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dsweep: reading manifest: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("dsweep: parsing manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (manifest %s)", err, path)
	}
	return m, nil
}

// ShardArtifactPath returns the shard's record artifact file.
func (m *Manifest) ShardArtifactPath(shard int) string {
	return filepath.Join(m.ArtifactDir, fmt.Sprintf("shard-%04d.rec", shard))
}

// MergedPath returns the merged artifact file.
func (m *Manifest) MergedPath() string {
	return filepath.Join(m.ArtifactDir, "merged.rec")
}

// atomicWrite writes data to path via a temporary file and rename, so
// readers never observe a half-written file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dsweep: creating directory for %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("dsweep: creating temp file for %s: %w", path, err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing: %v)", err, cerr)
		}
		if rerr := os.Remove(name); rerr != nil {
			err = fmt.Errorf("%w (and removing temp: %v)", err, rerr)
		}
		return fmt.Errorf("dsweep: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		if rerr := os.Remove(name); rerr != nil {
			err = fmt.Errorf("%w (and removing temp: %v)", err, rerr)
		}
		return fmt.Errorf("dsweep: closing temp for %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		if rerr := os.Remove(name); rerr != nil {
			err = fmt.Errorf("%w (and removing temp: %v)", err, rerr)
		}
		return fmt.Errorf("dsweep: renaming into %s: %w", path, err)
	}
	return nil
}
