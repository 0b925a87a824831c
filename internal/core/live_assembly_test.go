package core

import (
	"reflect"
	"testing"

	"memca/internal/telemetry"
	"memca/internal/telemetry/live"
)

// TestLiveAssemblyMatchesTracer holds live assembly to the simulator's
// tracer: the span log of each digest-oracle run, replayed into a
// live.Collector, must reassemble every sampled trace's attribution field
// for field. Live events carry no request class, so Class is not compared.
func TestLiveAssemblyMatchesTracer(t *testing.T) {
	for _, run := range tracedRuns() {
		t.Run(run.label, func(t *testing.T) {
			cfg := run.cfg
			spec := *cfg.Trace
			spec.EventRing = 1 << 21
			cfg.Trace = &spec
			x, err := NewExperiment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			if _, err := x.Run(); err != nil {
				t.Fatal(err)
			}
			tr := x.Tracer()
			if d := tr.EventsDropped(); d != 0 {
				t.Fatalf("ring overwrote %d events; the replay needs the whole log", d)
			}
			events := tr.Events()
			col, err := live.New(live.Config{Tiers: tr.TierNames(), Events: len(events)})
			if err != nil {
				t.Fatal(err)
			}
			for i := range events {
				e := &events[i]
				col.RecordAt(e.T, e.TraceID, e.Kind, int(e.Tier), int(e.Attempt), e.Aux)
			}
			rep := col.Report()
			if rep.Open != 0 || rep.Orphans != 0 || rep.DroppedEvents != 0 {
				t.Errorf("live report: Open %d, Orphans %d, DroppedEvents %d; want all 0", rep.Open, rep.Orphans, rep.DroppedEvents)
			}
			byID := make(map[uint64]telemetry.Attribution, len(rep.Attributions))
			for _, a := range rep.Attributions {
				byID[a.TraceID] = a
			}
			sampled := append(tr.TailAttributions(), tr.HeadAttributions()...)
			if len(sampled) == 0 {
				t.Fatal("the tracer sampled no traces")
			}
			for _, want := range sampled {
				got, ok := byID[want.TraceID]
				if !ok {
					t.Errorf("trace %d: no live record", want.TraceID)
					continue
				}
				got.Class = want.Class
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace %d:\n live   %+v\n tracer %+v", want.TraceID, got, want)
				}
			}
			t.Logf("compared %d records over %d events", len(sampled), len(events))
		})
	}
}
