package dsweep

import (
	"fmt"
	"os"

	"memca/internal/sweep"
)

// Merge validates every shard artifact against the manifest and writes
// the merged artifact: the records for jobs 0..Jobs-1 in index order,
// with no header (see sweep.EncodeRecords). The merged bytes are a pure
// function of the job payloads — independent of the shard count and of
// any kill/resume history — so a merge at 8 shards is byte-identical to
// one at 1 shard, and both to the encoding of a single-process
// sweep.RunState's results. An incomplete, torn, or mismatched shard refuses
// to merge; nothing partial is ever written.
func Merge(m *Manifest) error {
	payloads, err := collectShards(m)
	if err != nil {
		return err
	}
	return atomicWrite(m.MergedPath(), sweep.EncodeRecords(payloads))
}

// collectShards recovers every shard and assembles the payloads in job
// index order, failing unless each shard is complete and clean.
func collectShards(m *Manifest) ([][]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	payloads := make([][]byte, m.Jobs)
	for s := 0; s < m.Shards; s++ {
		state, err := RecoverShard(m, s)
		if err != nil {
			return nil, err
		}
		if !state.Complete() {
			return nil, fmt.Errorf("dsweep: shard %d incomplete (%d/%d records) — run or resume it before merging",
				s, state.Done, len(state.Indices))
		}
		if !state.Clean() {
			return nil, fmt.Errorf("dsweep: shard %d has a torn record tail after its last expected record — resume it so the tail is repaired before merging", s)
		}
		for k, idx := range state.Indices {
			payloads[idx] = state.Payloads[k]
		}
	}
	for i, p := range payloads {
		if p == nil {
			return nil, fmt.Errorf("dsweep: job %d has no record after collecting all shards", i)
		}
	}
	return payloads, nil
}

// ReadMerged reads the merged artifact back as payloads in job index
// order, validating the framing and the index sequence.
func ReadMerged(m *Manifest) ([][]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(m.MergedPath())
	if err != nil {
		return nil, fmt.Errorf("dsweep: reading merged artifact: %w", err)
	}
	indices, payloads, err := sweep.DecodeRecords(data)
	if err != nil {
		return nil, fmt.Errorf("dsweep: merged artifact: %w", err)
	}
	if len(payloads) != m.Jobs {
		return nil, fmt.Errorf("dsweep: merged artifact holds %d records, manifest expects %d", len(payloads), m.Jobs)
	}
	for k, idx := range indices {
		if idx != k {
			return nil, fmt.Errorf("dsweep: merged artifact record %d has index %d", k, idx)
		}
	}
	return payloads, nil
}
