package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzConfigJSON drives arbitrary bytes through parse, the bytes-level
// half of Load: strict JSON decoding, spec-section resolution, scenario
// conversion, and validation. The invariants are (1) no input panics,
// (2) everything an accepted input yields validates, and (3) the config
// runs the traffic's population on the system section's topology, or on
// the default (nil) topology when the document has no system section.
func FuzzConfigJSON(f *testing.F) {
	// Seed with the checked-in config files plus targeted schema corners.
	paths, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":-1,"env":"private","traffic":{"clients":1}}`))
	f.Add([]byte(`{"duration":"0s","warmup":"-5s"}`))
	f.Add([]byte(`{"env":"azure"}`))
	f.Add([]byte(`{"attack":{"kind":"saturation","intensity":2.5,"burst_length":"1h","interval":"1ns","adversary_vms":-3}}`))
	f.Add([]byte(`{"attack":{"kind":"lock","burst_length":"bogus"}}`))
	f.Add([]byte(`{"feedback":{"target_p95":"10s","decision_every":"0s"}}`))
	f.Add([]byte(`{"scaling":{"threshold":-0.5,"max_instances":0}}`))
	f.Add([]byte(`{"defense":{"split_lock_protection":true,"victim_reservation_mbps":-1}}`))
	f.Add([]byte(`{"llc_sample_period":"50ms","record_series":true}`))
	// Spec-section corners.
	f.Add([]byte(`{"system":{"tiers":[]}}`))
	f.Add([]byte(`{"system":{"tiers":[{"name":"db","threads":1,"servers":4,"service":"1ms"}]}}`))
	f.Add([]byte(`{"traffic":{"clients":100,"think_time":"1s","tier_mix":[0.5,0.4,0.2]}}`))
	f.Add([]byte(`{"traffic":{"diurnal":[0.5,-0.1,1.2]}}`))
	f.Add([]byte(`{"slo":{"percentile":100,"target_rt":"500ms"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, sys, traffic, slo, err := parse(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		for _, v := range []struct {
			name string
			err  error
		}{
			{"config", cfg.Validate()},
			{"system", sys.Validate()},
			{"traffic", traffic.Validate()},
			{"slo", slo.Validate()},
		} {
			if v.err != nil {
				t.Errorf("parse accepted %q but its %s is invalid: %v", data, v.name, v.err)
			}
		}
		if cfg.Clients != traffic.Clients || cfg.ThinkTime != traffic.ThinkTime {
			t.Errorf("parse(%q): config runs %d clients / %v think, traffic says %d / %v",
				data, cfg.Clients, cfg.ThinkTime, traffic.Clients, traffic.ThinkTime)
		}
		var d document
		if jsonErr := json.Unmarshal(data, &d); jsonErr != nil {
			t.Fatalf("parse accepted %q that does not decode: %v", data, jsonErr)
		}
		if d.System != nil && len(cfg.Tiers) != len(sys.Tiers) {
			t.Errorf("parse(%q): %d config tiers for %d system tiers", data, len(cfg.Tiers), len(sys.Tiers))
		}
		if d.System == nil && cfg.Tiers != nil {
			t.Errorf("parse(%q): no system section but %d config tiers", data, len(cfg.Tiers))
		}
	})
}
