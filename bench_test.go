// Package memca_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (BenchmarkFigures, one
// sub-benchmark per registered driver, plus the gated Figure 2 benchmark)
// and micro-benchmarks of the simulation kernels. The figures run in
// quick mode with file output disabled, so
//
//	go test -bench=. -benchmem
//
// doubles as a one-shot reproduction check.
package memca_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"memca"
	"memca/internal/figures"
	"memca/internal/memmodel"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/telemetry"
	"memca/internal/trace"
)

func benchOpts() figures.Options {
	return figures.Options{Quick: true, Seed: 1}
}

// BenchmarkFig2TailAmplification regenerates Figure 2: per-tier percentile
// response times under MemCA, one run drawn as both cloud environments.
// Reported metrics: client p95/p98 in milliseconds per environment.
func BenchmarkFig2TailAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, _, err := figures.RunLocal("fig2", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		res := out.(*figures.Fig2Result)
		b.ReportMetric(float64(res.ClientP95["ec2"].Milliseconds()), "ec2-p95-ms")
		b.ReportMetric(float64(res.ClientP98["ec2"].Milliseconds()), "ec2-p98-ms")
		b.ReportMetric(float64(res.ClientP95["private-cloud"].Milliseconds()), "private-p95-ms")
		if !res.AmplificationOK {
			b.Fatal("tail amplification ordering violated")
		}
	}
}

// BenchmarkFigures runs every registered figure driver once per
// iteration, in quick mode with seed 1, as one sub-benchmark each
// (BenchmarkFigures/<driver>); a driver added to the registry is covered
// without touching this file. Run with -benchmem for the per-driver
// allocation profile.
func BenchmarkFigures(b *testing.B) {
	for _, name := range figures.DistDrivers() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := figures.RunLocal(name, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicateWorkers measures the sweep engine's wall-clock
// scaling: 8 independent replications of a 30-second experiment at 1
// worker (the serial path) versus 4. The replication set is identical in
// both cases — only the wall clock should move. Compare with:
//
//	go test -bench BenchmarkReplicateWorkers -benchtime 3x .
func BenchmarkReplicateWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := memca.DefaultConfig()
			cfg.Clients = 1200
			cfg.Duration = 30 * time.Second
			cfg.Warmup = 10 * time.Second
			for i := 0; i < b.N; i++ {
				reps, err := memca.Replicate(context.Background(), cfg, 8, memca.ReplicateOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(reps) != 8 {
					b.Fatalf("got %d replications, want 8", len(reps))
				}
			}
		})
	}
}

// --- micro-benchmarks of the simulation kernels ---

// BenchmarkEngineEvents measures raw event throughput of the simulator.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	if err := e.RunAll(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueingThroughput measures simulated requests per wall second
// through the full 3-tier RPC network.
func BenchmarkQueueingThroughput(b *testing.B) {
	e := sim.NewEngine(1)
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "a", QueueLimit: 100, Servers: 2, Service: sim.NewExponential(600 * time.Microsecond)},
			{Name: "b", QueueLimit: 60, Servers: 2, Service: sim.NewExponential(1200 * time.Microsecond)},
			{Name: "c", QueueLimit: 25, Servers: 2, Service: sim.NewExponential(1600 * time.Microsecond)},
		},
		Classes: []queueing.Class{{Name: "full", Depth: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	var submit func()
	submit = func() {
		_, err := n.Submit(queueing.SubmitOpts{Class: 0, OnComplete: func(*queueing.Request) {
			done++
			if done < b.N {
				submit()
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	submit()
	if err := e.RunAll(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueingThroughputTraced is BenchmarkQueueingThroughput with a
// telemetry tracer attached: the per-request overhead of full span
// recording, attribution stamping, sampling, and window booking. The
// gap to the untraced benchmark is the enabled-tracing cost; -benchmem
// must report 1 alloc/op — the same request-pool amortization as the
// untraced path, with zero additional allocations from tracing.
func BenchmarkQueueingThroughputTraced(b *testing.B) {
	e := sim.NewEngine(1)
	tr, err := telemetry.New(e, telemetry.Config{
		Arena: stats.NewArena(),
		Spec: telemetry.Spec{
			MaxActive:      4096,
			EventRing:      1 << 14,
			TailKeep:       512,
			HeadEvery:      64,
			HeadKeep:       512,
			FeatureWindows: []time.Duration{50 * time.Millisecond, time.Second},
		},
		Tiers:   3,
		Seed:    1,
		Horizon: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := queueing.New(e, queueing.Config{
		Arena: stats.NewArena(),
		Mode:  queueing.ModeNTierRPC,
		Tiers: []queueing.TierConfig{
			{Name: "a", QueueLimit: 100, Servers: 2, Service: sim.NewExponential(600 * time.Microsecond)},
			{Name: "b", QueueLimit: 60, Servers: 2, Service: sim.NewExponential(1200 * time.Microsecond)},
			{Name: "c", QueueLimit: 25, Servers: 2, Service: sim.NewExponential(1600 * time.Microsecond)},
		},
		Classes:  []queueing.Class{{Name: "full", Depth: 2}},
		Observer: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	var submit func()
	submit = func() {
		_, err := n.Submit(queueing.SubmitOpts{Class: 0, OnComplete: func(*queueing.Request) {
			done++
			if done < b.N {
				submit()
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	submit()
	if err := e.RunAll(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExperimentMinute measures wall time per simulated minute of the
// full default experiment (3500 clients under attack).
func BenchmarkExperimentMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := memca.DefaultConfig()
		cfg.Duration = time.Minute
		cfg.Warmup = 10 * time.Second
		x, err := memca.NewExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Client.P95.Milliseconds()), "p95-ms")
		x.Close()
	}
}

// BenchmarkPercentileSample measures the exact-quantile kernel.
func BenchmarkPercentileSample(b *testing.B) {
	s := stats.NewArena().Sample(100000)
	for i := 0; i < 100000; i++ {
		s.Add(time.Duration(i*7919%100000) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(time.Duration(i) * time.Microsecond) // invalidate the cache
		_ = s.Percentile(95)
	}
}

// BenchmarkStatsRecord measures one sweep job's worth of arena-backed
// stats work — checkout, record past the capacity hints, sort/query,
// recycle — the steady-state kernel behind every figure run. The
// allocs/op contract is 0: after warm-up the arena serves every slab and
// object shell from its free lists, including the radix sort's scratch.
func BenchmarkStatsRecord(b *testing.B) {
	a := stats.NewArena()
	record := func() {
		s := a.Sample(1024)
		for j := 0; j < 4096; j++ {
			s.Add(time.Duration(j%977) * time.Millisecond)
		}
		if s.Quantile(0.99) == 0 {
			b.Fatal("unexpected zero quantile")
		}
		a.Reset()
	}
	for i := 0; i < 8; i++ {
		record() // warm the slab classes and free-list spines
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// BenchmarkBandwidthAllocation measures the host bandwidth allocator.
func BenchmarkBandwidthAllocation(b *testing.B) {
	spec := memmodel.ProfileSpec{
		Host:      memmodel.XeonE5_2603v3(),
		VMs:       6,
		Placement: memmodel.PlacementSamePackage,
		Kind:      memmodel.AttackMemoryLock,
		LockDuty:  1.0,
	}
	for i := 0; i < b.N; i++ {
		if _, err := memmodel.Profile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtract measures the streaming per-window feature
// booking the tracer performs on every closed trace — the detection
// features behind the attribution detector. The allocs/op contract is 0:
// the series is pre-sized for its horizon at construction, so steady-state
// extraction never touches the heap.
func BenchmarkFeatureExtract(b *testing.B) {
	fs, err := telemetry.NewFeatureSeries(50*time.Millisecond, time.Minute, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	book := func(i int) {
		end := time.Duration(i%60000) * time.Millisecond
		fs.Add(end, 1200*time.Millisecond, 90*time.Millisecond, 60*time.Millisecond,
			1050*time.Millisecond, 2, 1)
	}
	// Extend every window once so the measured phase only updates in place.
	for i := 0; i < 60000; i++ {
		book(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		book(i)
	}
	if len(fs.Windows()) == 0 {
		b.Fatal("no windows booked")
	}
}

// spanExportEvents builds BenchmarkSpanExport's fixed span-event stream:
// n events from overlapping requests through three tiers, started every
// 400µs. Every 8th request is preempted once in tier-1 service, every
// 16th is dropped at the front and retransmitted 1s later, and every 64th
// is dropped and abandoned. The stream is a pure function of n, so the
// benchmark's allocations are an exact contract.
func spanExportEvents(n int) []telemetry.SpanEvent {
	var evs []telemetry.SpanEvent
	at := func(t time.Duration, id uint64, kind queueing.SpanKind, tier int8, attempt uint16, aux time.Duration) {
		evs = append(evs, telemetry.SpanEvent{T: t, TraceID: id, Kind: kind, Tier: tier, Attempt: attempt, Aux: aux})
	}
	for id := uint64(1); len(evs) < n+n/4; id++ {
		t := time.Duration(id) * 400 * time.Microsecond
		var attempt uint16
		at(t, id, queueing.SpanSubmit, -1, 0, 0)
		if id%16 == 0 {
			at(t, id, queueing.SpanTierRequest, 0, 0, 0)
			at(t, id, queueing.SpanDrop, 0, 0, 0)
			if id%64 == 0 {
				at(t+time.Second, id, queueing.SpanAbandon, -1, 0, 0)
				continue
			}
			attempt = 1
			at(t, id, queueing.SpanRetransmit, -1, attempt, t+time.Second)
			t += time.Second
			at(t, id, queueing.SpanSubmit, -1, attempt, 0)
		}
		for tier := int8(0); tier < 3; tier++ {
			queued := time.Duration(id%7) * 137 * time.Microsecond
			service := time.Duration(300+int(tier)*250+int(id%5)*61) * time.Microsecond
			at(t, id, queueing.SpanTierRequest, tier, attempt, 0)
			at(t+queued, id, queueing.SpanServiceStart, tier, attempt, 0)
			if tier == 1 && id%8 == 0 {
				at(t+queued+service/2, id, queueing.SpanServicePreempt, tier, attempt, 0)
			}
			at(t+queued+service, id, queueing.SpanServiceEnd, tier, attempt, 0)
			t += queued + service
		}
		at(t, id, queueing.SpanComplete, -1, attempt, 0)
	}
	// Interleave the requests as a tracer ring would hold them: time
	// order, stamped with sequence numbers, the oldest n/4 overwritten.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	for i := range evs {
		evs[i].Seq = uint64(i)
	}
	return evs[len(evs)-n:]
}

// BenchmarkSpanExport measures the span exporters: one Chrome trace-event
// export plus one OTLP/JSON export of a fixed 2^16-event stream (the
// shape of a `memca-sim -trace` event ring after a wrap) to files in a temp
// directory. The allocs/op contract pins the direct-appender encoders:
// compact per-event records, open-span state sized to the in-flight set,
// and one buffered writer per file, no per-event encoding garbage.
func BenchmarkSpanExport(b *testing.B) {
	events := spanExportEvents(1 << 16)
	tiers := []string{"apache", "tomcat", "mysql"}
	dir := b.TempDir()
	chrome, otlp := filepath.Join(dir, "trace.json"), filepath.Join(dir, "otlp.json")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := telemetry.WriteChromeTrace(chrome, tiers, events); err != nil {
			b.Fatal(err)
		}
		if err := telemetry.WriteOTLP(otlp, telemetry.DefaultOTLPSpec(), tiers, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSVExport measures the CSV layer on fixed inputs: a 4,096-bucket
// 50 ms view (BucketsCSV), a Figure 7 shaped percentile-curve CSV (16
// percentiles, four curves) and 4,096 three-tier attribution records,
// written to files in a temp directory. The allocs/op contract pins the
// streaming writers: each file costs a fixed handful of allocations, none
// per row or cell.
func BenchmarkCSVExport(b *testing.B) {
	buckets := make([]stats.Bucket, 4096)
	for i := range buckets {
		buckets[i] = stats.Bucket{Start: time.Duration(i) * 50 * time.Millisecond,
			Mean: float64(i%97) / 97, Max: float64(i%13) / 13, Min: float64(i%7) / 70, Count: 25 + i%5}
	}
	percentiles := []float64{50, 60, 70, 75, 80, 85, 90, 92, 94, 95, 96, 97, 98, 99, 99.5, 99.9}
	names := []string{"client", "apache", "tomcat", "mysql"}
	curves := make([][]time.Duration, len(names))
	for c := range curves {
		for i := range percentiles {
			curves[c] = append(curves[c], time.Duration((c+1)*(i+1)*(i+1))*1237*time.Microsecond)
		}
	}
	tiers := []string{"apache", "tomcat", "mysql"}
	recs := make([]telemetry.Attribution, 4096)
	for i := range recs {
		start := time.Duration(i) * 7331 * time.Microsecond
		q := []time.Duration{time.Duration(i%11) * 173 * time.Microsecond, time.Duration(i%5) * 91 * time.Microsecond, 0}
		s := []time.Duration{412 * time.Microsecond, time.Duration(600+i%9*37) * time.Microsecond, 1890 * time.Microsecond}
		wait := time.Duration(0)
		if i%16 == 0 {
			wait = time.Second
		}
		rt := q[0] + q[1] + s[0] + s[1] + s[2] + wait + 3*time.Microsecond
		recs[i] = telemetry.Attribution{TraceID: uint64(i + 1), Class: i % 3, Start: start, End: start + rt, RT: rt,
			Attempts: 1 + i%16/15, Drops: i % 16 / 15, Queue: q, Service: s, RetransWait: wait, Other: 3 * time.Microsecond}
	}
	dir := b.TempDir()
	bucketPath, curvePath, attrPath := filepath.Join(dir, "buckets.csv"), filepath.Join(dir, "curves.csv"), filepath.Join(dir, "attribution.csv")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.BucketsCSV(bucketPath, buckets); err != nil {
			b.Fatal(err)
		}
		if err := trace.PercentileCurveCSV(curvePath, percentiles, names, curves); err != nil {
			b.Fatal(err)
		}
		if err := telemetry.WriteAttributionCSV(attrPath, tiers, recs); err != nil {
			b.Fatal(err)
		}
	}
}
