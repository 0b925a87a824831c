package dsweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
