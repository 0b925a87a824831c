package dsweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"memca/internal/sweep"
)

// Shard artifact layout:
//
//	header  := magic uvarint(shard) uvarint(len(hash)) hash
//	records := sweep record stream (see sweep.AppendRecord), one record
//	           per completed job, in the shard's execution order
//	           (ascending global job index within the shard)
//
// The header binds the file to one (manifest, shard) pair: the embedded
// manifest content hash means artifacts produced under a different spec —
// different figure, seed, job count, or shard plan — are rejected instead
// of merged. The record stream after the header is the checkpoint: its
// valid prefix is exactly the set of durably completed jobs, and a torn
// or corrupt tail (a worker killed mid-write) is truncated and re-run.

// shardMagic begins every shard artifact file.
var shardMagic = []byte("MEMCADSW1\n")

// ErrShardArtifact reports a shard artifact that cannot belong to the
// manifest: wrong magic, wrong shard number, or a mismatched manifest
// hash. Unlike a torn tail this is never repaired silently.
var ErrShardArtifact = errors.New("dsweep: shard artifact does not match manifest")

// ShardState is what recovery finds in a shard's artifact file: the
// durably completed prefix of the shard's job sequence.
type ShardState struct {
	// Shard is the shard number.
	Shard int
	// Indices is the shard's full job sequence (ascending global
	// indices); the worker executes and checkpoints in exactly this
	// order.
	Indices []int
	// Done is the number of completed jobs recovered: the first Done
	// elements of Indices have valid records.
	Done int
	// Payloads holds the recovered record payloads for Indices[:Done].
	Payloads [][]byte
	// validOffset is the file offset just past the last valid byte
	// (header included); a resuming writer truncates here. Zero means
	// the file is missing or even the header is unusable.
	validOffset int64
	// clean reports that the file ends exactly at validOffset — no torn
	// or corrupt tail.
	clean bool
}

// Complete reports whether every job of the shard has a durable record.
func (s *ShardState) Complete() bool { return s.Done == len(s.Indices) }

// Clean reports that no torn or corrupt bytes follow the valid prefix.
// A complete but unclean shard must be resumed (which truncates the
// tail) before it can merge.
func (s *ShardState) Clean() bool { return s.clean }

// LastIndex returns the global index of the most recently completed job,
// or -1 when none.
func (s *ShardState) LastIndex() int {
	if s.Done == 0 {
		return -1
	}
	return s.Indices[s.Done-1]
}

// appendShardHeader frames the artifact header for (shard, hash).
func appendShardHeader(dst []byte, shard int, hash string) []byte {
	dst = append(dst, shardMagic...)
	dst = binary.AppendUvarint(dst, uint64(shard))
	dst = binary.AppendUvarint(dst, uint64(len(hash)))
	return append(dst, hash...)
}

// errHeaderTorn reports a file cut off mid-header: the worker died
// between creating the file and making the header durable. No record can
// exist after a torn header (the header is fsynced before the first
// record), so recovery treats the file as fresh.
var errHeaderTorn = errors.New("dsweep: torn shard header")

// parseShardHeader validates the artifact header against the manifest and
// returns the remaining bytes. Running out of bytes while the prefix is
// still consistent with a header is errHeaderTorn (resumable-fresh);
// bytes that contradict the expected header are ErrShardArtifact.
func parseShardHeader(m *Manifest, shard int, b []byte) (rest []byte, n int64, err error) {
	if len(b) < len(shardMagic) {
		if bytes.Equal(b, shardMagic[:len(b)]) {
			return nil, 0, errHeaderTorn
		}
		return nil, 0, fmt.Errorf("%w: bad magic", ErrShardArtifact)
	}
	if !bytes.Equal(b[:len(shardMagic)], shardMagic) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrShardArtifact)
	}
	off := len(shardMagic)
	gotShard, k := binary.Uvarint(b[off:])
	if k == 0 {
		return nil, 0, errHeaderTorn
	}
	if k < 0 {
		return nil, 0, fmt.Errorf("%w: bad shard varint", ErrShardArtifact)
	}
	off += k
	hashLen, k := binary.Uvarint(b[off:])
	if k == 0 {
		return nil, 0, errHeaderTorn
	}
	if k < 0 || hashLen > 1<<10 {
		return nil, 0, fmt.Errorf("%w: bad hash framing", ErrShardArtifact)
	}
	off += k
	if off+int(hashLen) > len(b) {
		return nil, 0, errHeaderTorn
	}
	hash := string(b[off : off+int(hashLen)])
	off += int(hashLen)
	if int(gotShard) != shard {
		return nil, 0, fmt.Errorf("%w: artifact is for shard %d, expected %d", ErrShardArtifact, gotShard, shard)
	}
	if hash != m.Hash {
		return nil, 0, fmt.Errorf("%w: artifact manifest hash %.12s, expected %.12s", ErrShardArtifact, hash, m.Hash)
	}
	return b[off:], int64(off), nil
}

// RecoverShard scans a shard's artifact file and returns its durable
// state. A missing file is an empty, resumable state. A file whose header
// does not match the manifest is ErrShardArtifact — never merged, never
// overwritten silently. A torn or corrupt record tail ends the valid
// prefix: the jobs after it count as not done, which is what makes a
// kill-anywhere crash safe (a partially written record is detected and
// re-run, not merged).
func RecoverShard(m *Manifest, shard int) (*ShardState, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= m.Shards {
		return nil, fmt.Errorf("dsweep: shard %d outside plan of %d shards", shard, m.Shards)
	}
	state := &ShardState{Shard: shard, Indices: sweep.ShardIndices(m.Jobs, m.Shards, shard)}
	data, err := os.ReadFile(m.ShardArtifactPath(shard))
	if errors.Is(err, os.ErrNotExist) {
		// No file, no stray bytes: clean. This matters for shards that own
		// zero jobs and are never run — they are complete as-is.
		state.clean = true
		return state, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dsweep: reading shard %d artifact: %w", shard, err)
	}
	rest, off, err := parseShardHeader(m, shard, data)
	if errors.Is(err, errHeaderTorn) {
		// Died before the header was durable: no record can exist.
		return state, nil
	}
	if err != nil {
		return nil, err
	}
	state.validOffset = off
	for len(rest) > 0 && state.Done < len(state.Indices) {
		idx, payload, next, err := sweep.DecodeRecord(rest)
		if err != nil {
			// Torn or rotted tail: the valid prefix ends here.
			return state, nil
		}
		if idx != state.Indices[state.Done] {
			// A record out of sequence cannot have been written by a
			// correct worker under this manifest; treat everything from
			// here on as invalid tail.
			return state, nil
		}
		state.Payloads = append(state.Payloads, bytes.Clone(payload))
		state.Done++
		state.validOffset += int64(len(rest) - len(next))
		rest = next
	}
	state.clean = len(rest) == 0
	return state, nil
}

// shardWriter appends records to a shard artifact with batched fsync.
type shardWriter struct {
	f         *os.File
	m         *Manifest
	state     *ShardState
	sinceSync int
}

// openShardWriter recovers the shard's durable state, truncates any
// invalid tail, and returns a writer positioned to append the next
// record. The caller owns Close.
func openShardWriter(m *Manifest, shard int) (*shardWriter, error) {
	state, err := RecoverShard(m, shard)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(m.ArtifactDir, 0o755); err != nil {
		return nil, fmt.Errorf("dsweep: creating artifact directory: %w", err)
	}
	f, err := os.OpenFile(m.ShardArtifactPath(shard), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dsweep: opening shard %d artifact: %w", shard, err)
	}
	w := &shardWriter{f: f, m: m, state: state}
	if state.validOffset == 0 {
		// Fresh (or unusable-before-header) file: write the header and
		// make it durable before any record can refer to it.
		header := appendShardHeader(nil, shard, m.Hash)
		if err := f.Truncate(0); err != nil {
			return nil, w.fail(fmt.Errorf("dsweep: truncating shard %d artifact: %w", shard, err))
		}
		if _, err := f.WriteAt(header, 0); err != nil {
			return nil, w.fail(fmt.Errorf("dsweep: writing shard %d header: %w", shard, err))
		}
		state.validOffset = int64(len(header))
	} else if err := f.Truncate(state.validOffset); err != nil {
		// Drop the torn tail so the file ends at the last valid record.
		return nil, w.fail(fmt.Errorf("dsweep: truncating shard %d artifact tail: %w", shard, err))
	}
	if err := f.Sync(); err != nil {
		return nil, w.fail(fmt.Errorf("dsweep: syncing shard %d artifact: %w", shard, err))
	}
	if _, err := f.Seek(state.validOffset, 0); err != nil {
		return nil, w.fail(fmt.Errorf("dsweep: seeking shard %d artifact: %w", shard, err))
	}
	return w, nil
}

// fail closes the file and returns err, for open-path error exits.
func (w *shardWriter) fail(err error) error {
	if cerr := w.f.Close(); cerr != nil {
		return fmt.Errorf("%w (and closing: %v)", err, cerr)
	}
	return err
}

// append frames and writes the record for the shard's next pending job
// and advances the durable state, fsyncing when the batch fills.
func (w *shardWriter) append(payload []byte) error {
	if w.state.Complete() {
		return fmt.Errorf("dsweep: shard %d already complete", w.state.Shard)
	}
	index := w.state.Indices[w.state.Done]
	rec := sweep.AppendRecord(nil, index, payload)
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("dsweep: appending record %d to shard %d: %w", index, w.state.Shard, err)
	}
	w.state.Done++
	w.state.validOffset += int64(len(rec))
	w.sinceSync++
	if w.sinceSync >= w.m.FsyncEvery {
		return w.checkpoint()
	}
	return nil
}

// checkpoint makes the appended records durable.
func (w *shardWriter) checkpoint() error {
	if w.sinceSync == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dsweep: syncing shard %d artifact: %w", w.state.Shard, err)
	}
	w.sinceSync = 0
	return nil
}

// Close flushes a final checkpoint and closes the artifact.
func (w *shardWriter) Close() error {
	err := w.checkpoint()
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("dsweep: closing shard %d artifact: %w", w.state.Shard, cerr)
	}
	return err
}
