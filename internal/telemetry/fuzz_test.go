package telemetry

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"memca/internal/queueing"
)

// fuzzTierNames is the tier-name and service-prefix palette of
// FuzzSpanExport: plain names, every escaping class the exporters meet,
// and the empty name. Invalid UTF-8 is left out on purpose: encoding/json
// writes it as \ufffd, which decodes to a valid rune that re-marshals
// as raw UTF-8, so no round-trip oracle can hold for it; the edge golden
// files pin that case instead.
var fuzzTierNames = []string{
	"apache", "tomcat", "mysql", "memca", `web"front`, "<app>&co", `live"<svc>`, "dβ", "back\\slash\t\u2028", "",
}

// decodeSpanStream turns fuzz bytes into an export input: tier names and a
// service prefix drawn from fuzzTierNames, an epoch, and a span-event
// stream. Each event is a kind byte and a tier byte (both raw, so unknown
// kinds, tier -1 and out-of-range tiers all occur) followed by varints:
// attempt, trace ID, time delta, sequence delta and aux. Decoding stops
// at the first truncated event.
func decodeSpanStream(data []byte) (tierNames []string, spec OTLPSpec, events []SpanEvent) {
	pick := func() string {
		if len(data) == 0 {
			return fuzzTierNames[0]
		}
		s := fuzzTierNames[int(data[0])%len(fuzzTierNames)]
		data = data[1:]
		return s
	}
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	varint := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}

	nTiers := 0
	if len(data) > 0 {
		nTiers = int(data[0] % 5)
		data = data[1:]
	}
	for i := 0; i < nTiers; i++ {
		tierNames = append(tierNames, pick())
	}
	spec.ServicePrefix = pick()
	if spec.ServicePrefix == "" {
		spec.ServicePrefix = "memca"
	}
	epoch, _ := uvarint()
	spec.EpochNanos = int64(epoch >> 1) // Validate requires >= 0

	var t time.Duration
	var seq uint64
	for len(data) >= 2 {
		e := SpanEvent{Kind: queueing.SpanKind(data[0]), Tier: int8(data[1])}
		data = data[2:]
		attempt, ok1 := uvarint()
		trace, ok2 := uvarint()
		dt, ok3 := varint()
		dseq, ok4 := uvarint()
		aux, ok5 := varint()
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			break
		}
		t += time.Duration(dt)
		seq += dseq
		e.Attempt, e.TraceID, e.T, e.Seq, e.Aux = uint16(attempt), trace, t, seq, time.Duration(aux)
		events = append(events, e)
	}
	return tierNames, spec, events
}

// encodeSpanStream is decodeSpanStream's inverse for seeding the corpus.
// Names outside the palette map to its first entry.
func encodeSpanStream(tierNames []string, spec OTLPSpec, events []SpanEvent) []byte {
	index := func(s string) byte {
		for i, name := range fuzzTierNames {
			if name == s {
				return byte(i)
			}
		}
		return 0
	}
	b := []byte{byte(len(tierNames))}
	for _, name := range tierNames {
		b = append(b, index(name))
	}
	b = append(b, index(spec.ServicePrefix))
	b = binary.AppendUvarint(b, uint64(spec.EpochNanos)<<1)
	var t time.Duration
	var seq uint64
	for _, e := range events {
		b = append(b, byte(e.Kind), byte(e.Tier))
		b = binary.AppendUvarint(b, uint64(e.Attempt))
		b = binary.AppendUvarint(b, e.TraceID)
		b = binary.AppendVarint(b, int64(e.T-t))
		b = binary.AppendUvarint(b, e.Seq-seq)
		b = binary.AppendVarint(b, int64(e.Aux))
		t, seq = e.T, e.Seq
	}
	return b
}

// Test-local copies of the encoding/json shapes the exporters promise to
// reproduce. Field order fixes the JSON key order.
type (
	fuzzChromeEvent struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		TS   float64         `json:"ts"`
		Dur  *float64        `json:"dur,omitempty"`
		PID  int             `json:"pid"`
		TID  uint64          `json:"tid"`
		S    string          `json:"s,omitempty"`
		Args *fuzzChromeArgs `json:"args,omitempty"`
	}
	fuzzChromeArgs struct {
		Name     string   `json:"name,omitempty"`
		Attempt  *int     `json:"attempt,omitempty"`
		FireAtMs *float64 `json:"fire_at_ms,omitempty"`
	}
	fuzzOTLPValue struct {
		StringValue *string  `json:"stringValue,omitempty"`
		IntValue    *string  `json:"intValue,omitempty"`
		DoubleValue *float64 `json:"doubleValue,omitempty"`
	}
	fuzzOTLPKeyValue struct {
		Key   string        `json:"key"`
		Value fuzzOTLPValue `json:"value"`
	}
	fuzzOTLPResource struct {
		Attributes []fuzzOTLPKeyValue `json:"attributes"`
	}
	fuzzOTLPSpanEvent struct {
		TimeUnixNano string             `json:"timeUnixNano"`
		Name         string             `json:"name"`
		Attributes   []fuzzOTLPKeyValue `json:"attributes,omitempty"`
	}
	fuzzOTLPStatus struct {
		Message string `json:"message,omitempty"`
		Code    int    `json:"code,omitempty"`
	}
	fuzzOTLPSpan struct {
		TraceID           string              `json:"traceId"`
		SpanID            string              `json:"spanId"`
		ParentSpanID      string              `json:"parentSpanId,omitempty"`
		Name              string              `json:"name"`
		Kind              int                 `json:"kind"`
		StartTimeUnixNano string              `json:"startTimeUnixNano"`
		EndTimeUnixNano   string              `json:"endTimeUnixNano"`
		Attributes        []fuzzOTLPKeyValue  `json:"attributes,omitempty"`
		Events            []fuzzOTLPSpanEvent `json:"events,omitempty"`
		Status            *fuzzOTLPStatus     `json:"status,omitempty"`
	}
)

// roundTrip decodes one JSON value into a fresh V and re-marshals it,
// failing unless the bytes come back unchanged.
func roundTrip[V any](t *testing.T, what string, data []byte) {
	t.Helper()
	var v V
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s %s: %v", what, data, err)
	}
	again, err := json.Marshal(&v)
	if err != nil {
		t.Fatalf("%s %s: re-marshal: %v", what, data, err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("%s is not what encoding/json writes:\n got %s\nwant %s", what, data, again)
	}
}

// exportLines reads an export and splits it into its first line, its
// body lines and its last line, checking it is one valid JSON document.
func exportLines(t *testing.T, path string) (first string, body []string, last string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("%s is not valid JSON:\n%s", filepath.Base(path), data)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	return lines[0], lines[1 : len(lines)-1], lines[len(lines)-1]
}

// sameExport fails unless the export at got is byte-identical to what
// the reference exporter writes.
func sameExport(t *testing.T, what, got string, ref func(path string) error) {
	t.Helper()
	want := got + ".ref"
	if err := ref(want); err != nil {
		t.Fatalf("%s reference: %v", what, err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from the sort-based reference:\n got %s\nwant %s", what, g, w)
	}
}

// FuzzSpanExport is the encoder and differential oracle of the span
// exporters: for any span-event stream, the Chrome and OTLP exports must
// be valid JSON, every event, span and resource line must be exactly what
// encoding/json makes of the documented shape it decodes into, and every
// byte must match the sort-based reference exporters (exportref_test.go).
// The Chrome exporter is fed the stream in canonical (T, Seq) order, and
// must refuse the raw stream exactly when that is out of order; the OTLP
// exporter accepts any order and is fed both the raw stream and the
// canonical one.
func FuzzSpanExport(f *testing.F) {
	tr := goldenScenario(f)
	f.Add(encodeSpanStream(tr.TierNames(), DefaultOTLPSpec(), tr.Events()))
	f.Add(encodeSpanStream(edgeTierNames, edgeSpec, edgeEvents()))
	f.Add(encodeSpanStream(nil, DefaultOTLPSpec(), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		tierNames, spec, raw := decodeSpanStream(data)
		events := canonicalEvents(raw)
		dir := t.TempDir()

		chrome := filepath.Join(dir, "trace.json")
		if err := WriteChromeTrace(chrome, tierNames, events); err != nil {
			t.Fatal(err)
		}
		sameExport(t, "chrome trace", chrome, func(path string) error {
			return refWriteChromeTrace(path, tierNames, events)
		})
		ordered := slices.IsSortedFunc(raw, func(a, b SpanEvent) int {
			if c := cmp.Compare(a.T, b.T); c != 0 {
				return c
			}
			return cmp.Compare(a.Seq, b.Seq)
		})
		if err := WriteChromeTrace(filepath.Join(dir, "raw.json"), tierNames, raw); (err == nil) != ordered {
			t.Fatalf("raw stream in (T, Seq) order: %v, but WriteChromeTrace returned %v", ordered, err)
		}
		first, body, last := exportLines(t, chrome)
		if first != `{"traceEvents":[` || last != `],"displayTimeUnit":"ms"}` {
			t.Fatalf("chrome frame %q ... %q", first, last)
		}
		for i, line := range body {
			line, more := strings.CutSuffix(line, ",")
			if more != (i < len(body)-1) {
				t.Fatalf("chrome line %d: separator misplaced", i)
			}
			roundTrip[fuzzChromeEvent](t, "chrome event", []byte(line))
		}

		otlp := filepath.Join(dir, "otlp.json")
		if err := WriteOTLP(otlp, spec, tierNames, events); err != nil {
			t.Fatal(err)
		}
		sameExport(t, "canonical-order otlp", otlp, func(path string) error {
			return refWriteOTLP(path, spec, tierNames, events)
		})
		if err := WriteOTLP(otlp, spec, tierNames, raw); err != nil {
			t.Fatal(err)
		}
		sameExport(t, "otlp", otlp, func(path string) error {
			return refWriteOTLP(path, spec, tierNames, raw)
		})
		first, body, last = exportLines(t, otlp)
		if first != `{"resourceSpans":[` || last != `]}` {
			t.Fatalf("otlp frame %q ... %q", first, last)
		}
		const resourceOpen, resourceClose = `{"resource":`, `,"scopeSpans":[{"scope":{"name":"memca/telemetry"},"spans":[`
		resources := 0
		for _, line := range body {
			switch {
			case strings.HasPrefix(line, resourceOpen):
				resource, ok := strings.CutSuffix(strings.TrimPrefix(line, resourceOpen), resourceClose)
				if !ok {
					t.Fatalf("otlp resource line %s", line)
				}
				roundTrip[fuzzOTLPResource](t, "otlp resource", []byte(resource))
				resources++
			case line == "]}]}," || line == "]}]}":
			default:
				roundTrip[fuzzOTLPSpan](t, "otlp span", []byte(strings.TrimSuffix(line, ",")))
			}
		}
		if resources != len(tierNames)+1 {
			t.Fatalf("otlp has %d resources, want %d", resources, len(tierNames)+1)
		}
	})
}

// TestSpanStreamCodec checks the fuzz input codec round-trips a golden
// stream, so the seeds exercise exactly the events they were built from.
func TestSpanStreamCodec(t *testing.T) {
	names := []string{"apache", "tomcat"}
	events := edgeEvents()
	gotNames, gotSpec, gotEvents := decodeSpanStream(encodeSpanStream(names, edgeSpec, events))
	if strings.Join(gotNames, ",") != "apache,tomcat" || gotSpec.EpochNanos != edgeSpec.EpochNanos {
		t.Fatalf("decoded names %q, epoch %d", gotNames, gotSpec.EpochNanos)
	}
	if len(gotEvents) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(gotEvents), len(events))
	}
	for i := range events {
		if gotEvents[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, gotEvents[i], events[i])
		}
	}
}

// FuzzAssemble holds Assemble to its contract over any span-event stream,
// sorted or not: it never panics, every trace it sees is either closed
// (one record) or counted open, every record's decomposition sums exactly
// to its response time, and the records come out ordered by
// (Start, TraceID).
func FuzzAssemble(f *testing.F) {
	tr := goldenScenario(f)
	f.Add(encodeSpanStream(tr.TierNames(), DefaultOTLPSpec(), tr.Events()))
	f.Add(encodeSpanStream(edgeTierNames, edgeSpec, edgeEvents()))
	f.Add(encodeSpanStream(nil, DefaultOTLPSpec(), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		tierNames, _, events := decodeSpanStream(data)
		attrs, open, _ := Assemble(len(tierNames), events)
		ids := make(map[uint64]bool)
		for _, e := range events {
			ids[e.TraceID] = true
		}
		if len(attrs)+open != len(ids) {
			t.Fatalf("%d closed + %d open traces, want %d distinct trace IDs", len(attrs), open, len(ids))
		}
		for i := range attrs {
			a := &attrs[i]
			if len(a.Queue) != len(tierNames) || len(a.Service) != len(tierNames) {
				t.Fatalf("trace %d: %d queue and %d service entries for %d tiers", a.TraceID, len(a.Queue), len(a.Service), len(tierNames))
			}
			sum := a.RetransWait + a.Other
			for j := range a.Queue {
				sum += a.Queue[j] + a.Service[j]
			}
			if sum != a.RT {
				t.Fatalf("trace %d: components sum to %v, RT %v", a.TraceID, sum, a.RT)
			}
			if i > 0 {
				p := &attrs[i-1]
				if p.Start > a.Start || (p.Start == a.Start && p.TraceID >= a.TraceID) {
					t.Fatalf("record %d (start %v, trace %d) after (start %v, trace %d)", i, a.Start, a.TraceID, p.Start, p.TraceID)
				}
			}
		}
	})
}
