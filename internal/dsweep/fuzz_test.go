package dsweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"memca/internal/sweep"
)

// FuzzLoadManifest writes arbitrary bytes as a manifest file. LoadManifest
// must never panic; a manifest it accepts must pass Validate and carry
// its own content hash; and editing any result-determining field of an
// accepted manifest without rehashing must be refused, both by Validate
// and by LoadManifest reading the edited file.
func FuzzLoadManifest(f *testing.F) {
	valid := &Manifest{Version: ManifestVersion, Figure: "fig2", Jobs: 4, Shards: 2, Seed: 7, Quick: true, ArtifactDir: "art", FsyncEvery: DefaultFsyncEvery}
	valid.Hash = valid.ComputeHash()
	data, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"figure":"x","jobs":1,"shards":1,"fsync_every":1,"artifact_dir":"d","hash":"00"}`))
	f.Add([]byte(`{"version":1`))
	f.Add([]byte(`not json`))

	edits := []struct {
		field string
		edit  func(*Manifest)
	}{
		{"version", func(m *Manifest) { m.Version++ }},
		{"figure", func(m *Manifest) { m.Figure += "x" }},
		{"jobs", func(m *Manifest) { m.Jobs++ }},
		{"shards", func(m *Manifest) { m.Shards++ }},
		{"seed", func(m *Manifest) { m.Seed++ }},
		{"quick", func(m *Manifest) { m.Quick = !m.Quick }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			if m != nil {
				t.Fatalf("LoadManifest returned a manifest with error %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		if m.Hash != m.ComputeHash() {
			t.Fatalf("accepted manifest hash %s, content hash %s", m.Hash, m.ComputeHash())
		}
		for _, e := range edits {
			edited := *m
			e.edit(&edited)
			if edited.Validate() == nil {
				t.Fatalf("manifest with %s edited and not rehashed passes Validate", e.field)
			}
			out, err := json.Marshal(&edited)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadManifest(path); err == nil {
				t.Fatalf("LoadManifest accepted a manifest with %s edited and not rehashed", e.field)
			}
		}
	})
}

// FuzzRecoverShard writes a valid shard artifact (header plus nrec
// records), then appends tail, truncates it to cut bytes (0 keeps it
// whole) and XORs mask into the byte at flip. RecoverShard must never
// panic and may refuse only a damaged header; what it recovers is a
// prefix of the shard's jobs whose payloads equal the ones written, and
// a writer resumed from that state must leave a file that recovers
// complete and clean.
func FuzzRecoverShard(f *testing.F) {
	f.Add(uint8(2), []byte("payload"), []byte{}, uint16(0), uint16(0), byte(0))
	f.Add(uint8(4), []byte("x"), []byte{0xff, 0x01}, uint16(0), uint16(0), byte(0))
	f.Add(uint8(3), []byte("abc"), []byte{}, uint16(40), uint16(0), byte(0))
	f.Add(uint8(3), []byte("abc"), []byte{}, uint16(0), uint16(45), byte(0x10))
	f.Add(uint8(1), []byte{}, []byte{}, uint16(0), uint16(3), byte(0x01))
	f.Fuzz(func(t *testing.T, nrec uint8, seed, tail []byte, cut, flip uint16, mask byte) {
		m := &Manifest{Version: ManifestVersion, Figure: "fig2", Jobs: 8, Shards: 2, Seed: 7, Quick: true,
			ArtifactDir: t.TempDir(), FsyncEvery: DefaultFsyncEvery}
		m.Hash = m.ComputeHash()
		jobs := len(sweep.ShardIndices(m.Jobs, m.Shards, 0))
		payloads := make([][]byte, jobs)
		for i := range payloads {
			payloads[i] = append([]byte{byte(i)}, seed...)
		}
		written := int(nrec) % (jobs + 1)
		writeJobs := func(from, to int) {
			t.Helper()
			w, err := openShardWriter(m, 0)
			if err != nil {
				t.Fatalf("opening writer: %v", err)
			}
			for _, p := range payloads[from:to] {
				if err := w.append(p); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		writeJobs(0, written)

		path := m.ShardArtifactPath(0)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, tail...)
		if cut > 0 {
			data = data[:int(cut)%(len(data)+1)]
		}
		if mask != 0 && len(data) > 0 {
			data[int(flip)%len(data)] ^= mask
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		intact := len(tail) == 0 && cut == 0 && mask == 0

		st, err := RecoverShard(m, 0)
		if err != nil {
			if !errors.Is(err, ErrShardArtifact) || intact {
				t.Fatalf("RecoverShard: %v", err)
			}
			return
		}
		if st.Done > len(st.Indices) || len(st.Payloads) != st.Done {
			t.Fatalf("recovered %d of %d jobs with %d payloads", st.Done, len(st.Indices), len(st.Payloads))
		}
		if len(tail) == 0 && st.Done > written {
			t.Fatalf("recovered %d jobs, only %d written", st.Done, written)
		}
		if intact && (st.Done != written || !st.Clean()) {
			t.Fatalf("intact artifact recovered %d of %d jobs, clean %v", st.Done, written, st.Clean())
		}
		for i := 0; i < min(st.Done, written); i++ {
			if !bytes.Equal(st.Payloads[i], payloads[i]) {
				t.Fatalf("payload %d = %x, wrote %x", i, st.Payloads[i], payloads[i])
			}
		}

		recovered := st.Payloads
		writeJobs(st.Done, jobs)
		final, err := RecoverShard(m, 0)
		if err != nil {
			t.Fatalf("RecoverShard after resume: %v", err)
		}
		if !final.Complete() || !final.Clean() {
			t.Fatalf("resumed artifact: %d of %d jobs, clean %v", final.Done, len(final.Indices), final.Clean())
		}
		for i, p := range final.Payloads {
			want := payloads[i]
			if i < len(recovered) {
				want = recovered[i]
			}
			if !bytes.Equal(p, want) {
				t.Fatalf("resumed payload %d = %x, want %x", i, p, want)
			}
		}
	})
}
