package telemetry

import (
	"fmt"

	"memca/internal/trace"
)

// The metrics exporter emits the feature series in the standard OTLP/JSON
// metrics encoding (the protobuf JSON mapping of
// opentelemetry.proto.metrics.v1), again without any OpenTelemetry
// dependency: each detection feature becomes one gauge metric with one
// data point per window, so the same series a detector consumes in
// process can be shipped to any OTLP-speaking metrics backend. Each
// metric line is what encoding/json makes of
// {name, description, unit, gauge{dataPoints[{startTimeUnixNano,
// timeUnixNano, asDouble|asInt}]}}, keeping same-seed exports
// byte-identical.

// featureMetrics lists the exported gauges in file order. Exactly one of
// asInt and asDouble is set.
var featureMetrics = []struct {
	name, desc, unit string
	asInt            func(WindowFeatures) int64
	asDouble         func(WindowFeatures) float64
}{
	{name: "memca.features.count", desc: "traces closed in the window", unit: "1",
		asInt: func(w WindowFeatures) int64 { return int64(w.Count) }},
	{name: "memca.features.tail_over", desc: "closed traces at or above the tail threshold", unit: "1",
		asInt: func(w WindowFeatures) int64 { return int64(w.TailOver) }},
	{name: "memca.features.retrans_share", desc: "retransmission-wait share of summed response time", unit: "1",
		asDouble: WindowFeatures.RetransShare},
	{name: "memca.features.drop_rate", desc: "rejected fraction of submitted attempts", unit: "1",
		asDouble: WindowFeatures.DropRate},
	{name: "memca.features.queue_share", desc: "queueing share of summed response time", unit: "1",
		asDouble: WindowFeatures.QueueShare},
	{name: "memca.features.service_share", desc: "service share of summed response time", unit: "1",
		asDouble: WindowFeatures.ServiceShare},
}

// WriteFeaturesOTLP exports one feature series as OTLP/JSON gauge metrics
// under the resource "<prefix>-features". Each window contributes one data
// point per feature, stamped at the window's right edge with the window's
// left edge as the start time.
func WriteFeaturesOTLP(path string, spec OTLPSpec, fs *FeatureSeries) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if fs == nil {
		return fmt.Errorf("telemetry: feature series must not be nil")
	}
	nanos := func(i int, edge int64) int64 {
		return spec.EpochNanos + fs.WindowStart(i).Nanoseconds() + edge*fs.Res.Nanoseconds()
	}
	x, err := trace.Create(path, jsonBuffer)
	if err != nil {
		return err
	}
	b := append(x.Line(), "{\"resourceMetrics\":[\n{\"resource\":{\"attributes\":[{\"key\":\"service.name\",\"value\":{\"stringValue\":"...)
	b = appendString(b, spec.ServicePrefix+"-features")
	b = append(b, "}},"...)
	b = appendIntAttr(b, "memca.feature_window_ms", fs.Res.Milliseconds())
	x.Put(append(b, "]},\"scopeMetrics\":[{\"scope\":{\"name\":\"memca/telemetry\"},\"metrics\":[\n"...))
	wins := fs.Windows()
	for mi, m := range featureMetrics {
		b := append(x.Line(), `{"name":"`...)
		b = append(b, m.name...)
		b = append(b, `","description":"`...)
		b = append(b, m.desc...)
		b = append(b, `","unit":"`...)
		b = append(b, m.unit...)
		b = append(b, `","gauge":{"dataPoints":[`...)
		for i, w := range wins {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"startTimeUnixNano":`...)
			b = appendQuotedInt(b, nanos(i, 0))
			b = append(b, `,"timeUnixNano":`...)
			b = appendQuotedInt(b, nanos(i, 1))
			if m.asInt != nil {
				b = append(b, `,"asInt":`...)
				b = appendQuotedInt(b, m.asInt(w))
			} else {
				b = append(b, `,"asDouble":`...)
				b = appendFloat(b, m.asDouble(w))
			}
			b = append(b, '}')
		}
		b = append(b, "]}}"...)
		if mi < len(featureMetrics)-1 {
			b = append(b, ',')
		}
		x.Put(append(b, '\n'))
	}
	x.Put(append(x.Line(), "]}]}\n]}\n"...))
	return x.Close()
}
