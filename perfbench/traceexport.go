package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"memca/internal/core"
	"memca/internal/telemetry"
)

// traceExport is memca-trace's attacked run, done through public calls:
// the default experiment with memca-trace's tracer settings, then every
// exporter memca-trace writes.
type traceExport struct {
	ref string
	// mutate, when set, edits the report before the check (tests use it
	// to corrupt the fingerprint).
	mutate func(*core.Report)
}

func (w *traceExport) fingerprint() string { return "report-sha256 " + w.ref }

func (w *traceExport) warm(b *bench) error { return w.op(b, newPhase()) }

func (w *traceExport) measure(b *bench, p *phase, until time.Time) {
	runOps(b, p, until, w.op)
}

// traceConfig is memca-trace -run attacked: core.DefaultConfig with the
// CLI's tracer defaults.
func traceConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	spec := telemetry.DefaultSpec()
	spec.TailKeep = 4096
	spec.EventRing = 1 << 18
	spec.FeatureWindows = []time.Duration{50 * time.Millisecond, time.Second}
	spec.TailOver = time.Second
	cfg.Trace = &spec
	return cfg
}

func (w *traceExport) op(b *bench, p *phase) error {
	dir, err := os.MkdirTemp(b.out, "trace-export-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	op, sp := b.nextOp(), b.spans
	cfg := traceConfig(b.seed)

	var x *core.Experiment
	err = sp.call("core.new_experiment", op, -1, func() error {
		t0 := time.Now()
		var err error
		x, err = core.NewExperiment(cfg)
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	var rep *core.Report
	err = sp.call("core.run", op, -1, func() error {
		var err error
		rep, err = x.RunContext(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	tr := x.Tracer()
	tiers := tr.TierNames()
	path := func(name string) string { return filepath.Join(dir, name) }

	err = sp.call("telemetry.chrome", op, -1, func() error { return tr.WriteChromeTrace(path("trace_attacked.json")) })
	if err != nil {
		return err
	}
	err = sp.call("telemetry.otlp", op, -1, func() error {
		return tr.WriteOTLP(path("otlp_attacked.json"), telemetry.DefaultOTLPSpec())
	})
	if err != nil {
		return err
	}
	err = sp.call("telemetry.csv", op, -1, func() error {
		if err := telemetry.WriteAttributionCSV(path("attribution_attacked.csv"), tiers, tr.TailAttributions()); err != nil {
			return err
		}
		if head := tr.HeadAttributions(); len(head) > 0 {
			if err := telemetry.WriteAttributionCSV(path("attribution_head_attacked.csv"), tiers, head); err != nil {
				return err
			}
		}
		for _, tl := range tr.Timelines() {
			if err := telemetry.WriteTimelineCSV(path(fmt.Sprintf("timeline_attacked_%dms.csv", tl.Res.Milliseconds())), tl); err != nil {
				return err
			}
		}
		for _, fs := range tr.Features() {
			if err := telemetry.WriteFeaturesCSV(path(fmt.Sprintf("features_attacked_%dms.csv", fs.Res.Milliseconds())), fs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = sp.call("telemetry.features_otlp", op, -1, func() error {
		for _, fs := range tr.Features() {
			err := telemetry.WriteFeaturesOTLP(path(fmt.Sprintf("features_otlp_attacked_%dms.json", fs.Res.Milliseconds())),
				telemetry.DefaultOTLPSpec(), fs)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	exported, err := fileBytes(path("*"))
	if err != nil {
		return err
	}
	events := x.Engine().Processed()
	p.layer["sim.events_per_op"] = float64(events)
	p.layer["workload.requests"] = float64(rep.Requests)
	p.layer["workload.retransmissions"] = float64(rep.Retransmissions)
	p.layer["queueing.drops"] = float64(rep.Drops)
	p.layer["attack.bursts"] = float64(rep.Bursts)
	p.layer["telemetry.closed"] = float64(tr.Closed())
	p.layer["telemetry.untracked"] = float64(tr.Untracked())
	p.layer["telemetry.events_dropped"] = float64(tr.EventsDropped())
	p.layer["telemetry.export_mb"] = float64(exported) / (1 << 20)
	if b.spans != nil {
		p.layer["sim.host_ns_per_event"] = median(b.spans.perOp("core.run")) * 1e6 / float64(events)
	}

	if w.mutate != nil {
		w.mutate(rep)
	}
	if open := tr.OpenTraces(); open != 0 {
		return fmt.Errorf("%d traces still open after the drain", open)
	}
	if rep.Client.P99 < time.Second {
		return fmt.Errorf("attacked client p99 %v is below the 1 s damage line", rep.Client.P99)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("p95=%d p99=%d requests=%d drops=%d retrans=%d events=%d",
		rep.Client.P95, rep.Client.P99, rep.Requests, rep.Drops, rep.Retransmissions, events)))
	fp := hex.EncodeToString(sum[:])
	if w.ref == "" {
		w.ref = fp
	} else if fp != w.ref {
		return fmt.Errorf("report fingerprint %s differs from the run's first op %s", fp, w.ref)
	}
	return nil
}
