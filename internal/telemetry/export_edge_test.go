package telemetry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memca/internal/queueing"
)

// edgeTierNames exercises every JSON string-escaping rule an exporter
// must reproduce: quotes, backslashes, HTML-sensitive bytes, control
// bytes, non-ASCII text, the JS line separator U+2028, and invalid UTF-8.
var edgeTierNames = []string{`web"front`, "<app>&co", "dβ\xff", "back\\slash\t\u2028"}

// edgeSpec is a non-default OTLP spec: a live-style epoch and a service
// prefix that needs escaping.
var edgeSpec = OTLPSpec{ServicePrefix: `live"<svc>`, EpochNanos: 1700000000123456789}

// edgeEvents is a hand-built span-event stream covering the export edge
// cases no simulated scenario reaches in one small run: a trace that
// starts mid-way (its opening events lost to a ring wrap), capacity
// preemption, fractional and sub-microsecond retransmission fire times,
// a trace still open at export, out-of-range and client-side tiers for
// service spans, a trace ID above 2^53, and an event before time zero.
func edgeEvents() []SpanEvent {
	const us = time.Microsecond
	var evs []SpanEvent
	var seq uint64
	ev := func(t time.Duration, trace uint64, kind queueing.SpanKind, tier int8, attempt uint16, aux time.Duration) {
		seq++
		evs = append(evs, SpanEvent{T: t, Seq: seq, TraceID: trace, Aux: aux, Kind: kind, Tier: tier, Attempt: attempt})
	}

	// Trace 7 starts mid-trace: submit, tier-request and service-start
	// were overwritten, so only its service-end and completion survive.
	ev(0, 7, queueing.SpanServiceEnd, 0, 0, 0)
	ev(0, 7, queueing.SpanTierRespond, 0, 0, 0)
	// Trace 1: two tiers, preempted once mid-service at the front.
	ev(50*us, 1, queueing.SpanSubmit, -1, 0, 0)
	ev(50*us, 1, queueing.SpanTierRequest, 0, 0, 0)
	ev(50*us, 1, queueing.SpanServiceStart, 0, 0, 0)
	// Trace 2: dropped at the front, retransmitted at a fractional
	// millisecond, served by tier 2 on attempt 1.
	ev(60*us, 2, queueing.SpanSubmit, -1, 0, 0)
	ev(60*us, 2, queueing.SpanTierRequest, 0, 0, 0)
	ev(60*us, 2, queueing.SpanDrop, 0, 0, 0)
	ev(60*us, 2, queueing.SpanRetransmit, -1, 1, 1234567)
	ev(75*us, 1, queueing.SpanServicePreempt, 0, 0, 0)
	ev(100*us, 7, queueing.SpanComplete, -1, 0, 0)
	// Trace 3: dropped at tier 3, a retransmission scheduled 1ns out,
	// then abandoned.
	ev(200*us, 3, queueing.SpanSubmit, -1, 0, 0)
	ev(200*us, 3, queueing.SpanTierRequest, 3, 0, 0)
	ev(200*us, 3, queueing.SpanDrop, 3, 0, 0)
	ev(200*us, 3, queueing.SpanRetransmit, -1, 1, 1)
	ev(1250*us, 1, queueing.SpanServiceEnd, 0, 0, 0)
	ev(1250*us, 1, queueing.SpanTierRequest, 1, 0, 0)
	ev(1234567, 2, queueing.SpanSubmit, -1, 1, 0)
	ev(1234567, 2, queueing.SpanTierRequest, 2, 1, 0)
	ev(1234567, 2, queueing.SpanStationWait, 2, 1, 0)
	ev(1300*us, 1, queueing.SpanServiceStart, 1, 0, 0)
	ev(1300*us, 2, queueing.SpanServiceStart, 2, 1, 0)
	// Trace 4 is still open at export: queued and in service at tier 1.
	ev(1400*us, 4, queueing.SpanSubmit, -1, 0, 0)
	ev(1400*us, 4, queueing.SpanTierRequest, 1, 0, 0)
	ev(1500*us, 3, queueing.SpanAbandon, -1, 0, 0)
	// Trace 5: service spans at an out-of-range tier and the client tier.
	ev(1600*us, 5, queueing.SpanSubmit, -1, 0, 0)
	ev(1600*us, 5, queueing.SpanServiceStart, 9, 0, 0)
	ev(1700*us, 5, queueing.SpanServiceEnd, 9, 0, 0)
	ev(1700*us, 5, queueing.SpanServiceStart, -1, 0, 0)
	ev(1800*us, 5, queueing.SpanServiceEnd, -1, 0, 0)
	ev(1800*us, 5, queueing.SpanComplete, -1, 0, 0)
	ev(2300*us, 1, queueing.SpanServiceEnd, 1, 0, 0)
	ev(2300*us, 2, queueing.SpanServiceEnd, 2, 1, 0)
	ev(2350*us, 2, queueing.SpanComplete, -1, 1, 0)
	ev(2400*us, 1, queueing.SpanComplete, -1, 0, 0)
	ev(2500*us, 4, queueing.SpanServiceStart, 1, 0, 0)
	// Trace 0xfedcba9876543210 lost its submit and tier-request: a bare
	// service span at tier 1 and an unmatched completion.
	ev(2600*us, 0xfedcba9876543210, queueing.SpanServiceStart, 1, 0, 0)
	ev(2700*us, 0xfedcba9876543210, queueing.SpanServiceEnd, 1, 0, 0)
	ev(2700*us, 0xfedcba9876543210, queueing.SpanComplete, -1, 0, 0)
	// Trace 6: a lone preemption stamped before time zero.
	ev(-5*us, 6, queueing.SpanServicePreempt, 2, 0, 0)
	return evs
}

// edgeFeatures is a restored feature series whose shares hit the float
// formatting edges: zero windows, exponent notation below 1e-6, repeating
// fractions, negative values, and integers beyond 2^53.
func edgeFeatures() *FeatureSeries {
	fs := RestoreFeatureSeries(250*time.Millisecond, time.Second, 1500*time.Millisecond, []WindowFeatures{
		{},
		{Count: 3, Attempts: 4, Drops: 1, TailOver: 1, SumRT: 3 * time.Second,
			SumQueue: time.Second, SumService: 500 * time.Millisecond, SumRetransWait: 1500 * time.Millisecond},
		{Count: 1, Attempts: 3, Drops: 1, SumRT: 1 << 62, SumQueue: 3, SumService: 1 << 61, SumRetransWait: 1},
		{Count: -2, Attempts: 1, Drops: -1, TailOver: -1, SumRT: 3, SumQueue: -7, SumService: 1, SumRetransWait: 2},
		{Count: 1 << 62, Attempts: 1, Drops: 1 << 62, SumRT: 7, SumQueue: 1, SumService: 6},
	})
	return &fs
}

// The Chrome exporter takes its events in (T, Seq) order, as both the
// tracer's ring and the live collector hold them; edgeEvents is not in
// that order, so it gets a sorted copy.
func TestGoldenEdgeChromeTrace(t *testing.T) {
	checkGolden(t, "edge_trace.json", func(path string) error {
		return WriteChromeTrace(path, edgeTierNames, canonicalEvents(edgeEvents()))
	})
}

// The raw edge stream goes back in time at event 17 (the retransmitted
// submit at 1234.567 µs follows an event at 1250 µs): the Chrome exporter
// must name that event and write no file.
func TestChromeTraceRejectsOutOfOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	err := WriteChromeTrace(path, edgeTierNames, edgeEvents())
	if err == nil || !strings.Contains(err.Error(), "event 17 is out of (T, Seq) order") {
		t.Fatalf("WriteChromeTrace on the unsorted edge stream: %v", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("out-of-order export left a file: %v", serr)
	}
}

func TestGoldenEdgeOTLP(t *testing.T) {
	checkGolden(t, "edge_otlp.json", func(path string) error {
		return WriteOTLP(path, edgeSpec, edgeTierNames, edgeEvents())
	})
}

func TestGoldenEdgeFeaturesOTLP(t *testing.T) {
	checkGolden(t, "edge_features_otlp.json", func(path string) error {
		return WriteFeaturesOTLP(path, edgeSpec, edgeFeatures())
	})
}

// The empty exports: no tiers and no events still yield well-formed
// documents (the client process row, an empty client resource).
func TestGoldenEdgeEmpty(t *testing.T) {
	checkGolden(t, "edge_trace_empty.json", func(path string) error {
		return WriteChromeTrace(path, nil, nil)
	})
	checkGolden(t, "edge_otlp_empty.json", func(path string) error {
		return WriteOTLP(path, DefaultOTLPSpec(), nil, nil)
	})
}

// TestExportWriteErrorsSurface points every JSON exporter and every CSV
// writer at /dev/full, where every write fails with ENOSPC: each must
// return that error with the path in its message, so buffering can never
// swallow a failed write at Flush or Close.
func TestExportWriteErrorsSurface(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("no %s on this system: %v", full, err)
	}
	tr := goldenScenario(t)
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"chrome", func() error { return tr.WriteChromeTrace(full) }},
		{"otlp", func() error { return tr.WriteOTLP(full, DefaultOTLPSpec()) }},
		{"features-otlp", func() error {
			return WriteFeaturesOTLP(full, DefaultOTLPSpec(), tr.FeaturesAt(50*time.Millisecond))
		}},
		{"attribution-csv", func() error {
			return WriteAttributionCSV(full, tr.TierNames(), tr.TailAttributions())
		}},
		{"timeline-csv", func() error { return WriteTimelineCSV(full, tr.FeaturesAt(50*time.Millisecond)) }},
		{"features-csv", func() error { return WriteFeaturesCSV(full, tr.FeaturesAt(50*time.Millisecond)) }},
		{"breakdown-csv", func() error {
			b := Summarize(len(tr.TierNames()), tr.TailAttributions())
			return WriteBreakdownCSV(full, tr.TierNames(), []string{"attacked"}, []Breakdown{b})
		}},
	} {
		err := tc.write()
		if !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s export to %s returned %v, want ENOSPC", tc.name, full, err)
		} else if !strings.Contains(err.Error(), full) {
			t.Errorf("%s export error %q does not name %s", tc.name, err, full)
		}
	}
}
