// Command memca-demo runs the complete MemCA loop live, in one process, on
// real sockets: a real 3-tier HTTP system (victimd), a closed-loop HTTP
// client population, the MemCA-FE daemon executing ON-OFF bursts against
// the db tier's capacity (standing in for co-located memory contention),
// and the MemCA-BE controller probing the web tier and tuning the attack
// over TCP. It prints per-phase client latency percentiles: baseline,
// under attack, and after the attack stops.
//
// The whole run is causally traced: every client request carries a trace
// ID through web→app→db, each tier records wall-clock spans into a shared
// collector, and the same exporters the simulator uses write Chrome
// trace-event JSON, OTLP/JSON, and per-trace attribution CSVs — one
// telemetry pipeline for simulated and real runs. -trace-out, -otlp-out
// and -attrib-out choose which of these artifacts to write; they do not
// change the run.
//
//	go run ./cmd/memca-demo -duration 20s -trace-out out/demo/trace.json -otlp-out out/demo/otlp.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/memcafw"
	"memca/internal/stats"
	"memca/internal/telemetry"
	"memca/internal/telemetry/live"
	"memca/internal/victimd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memca-demo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		phase       = flag.Duration("duration", 15*time.Second, "length of each phase (baseline, attack, recovery)")
		clients     = flag.Int("clients", 16, "closed-loop HTTP clients")
		d           = flag.Float64("degradation", 0.05, "degradation index during bursts")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of the live run (empty disables)")
		otlpOut     = flag.String("otlp-out", "", "write an OTLP/JSON export of the live run (empty disables)")
		attribOut   = flag.String("attrib-out", "", "write a per-trace attribution CSV of the live run (empty disables)")
		traceEvents = flag.Int("trace-events", 1<<18, "live span-event log capacity")
	)
	flag.Parse()

	col, err := live.New(live.Config{Tiers: victimd.TierNames(), Events: *traceEvents})
	if err != nil {
		return err
	}

	sysCfg := victimd.DefaultSystem()
	sysCfg.Trace = col
	sys, err := victimd.StartSystem(sysCfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sys.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "closing system:", cerr)
		}
	}()
	fmt.Printf("victim 3-tier system: web %s -> app %s -> db %s\n",
		sys.Web.URL(), sys.App.URL(), sys.DB.URL())

	// Closed-loop client population against the web tier: every client
	// request is a traced logical request with up to three attempts (the
	// paper's RTO-driven retransmission behaviour).
	tcl, err := live.NewClient(live.ClientConfig{
		Collector:   col,
		HTTP:        &http.Client{Timeout: 5 * time.Second},
		MaxAttempts: 3,
		Backoff:     100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	lg := newLoadGen(sys.Web.URL()+"/", *clients, tcl)
	lg.Start()
	defer lg.Stop()

	measure := func(name string) {
		lg.Reset()
		time.Sleep(*phase)
		p50, p95, p99, n, errs := lg.Percentiles()
		fmt.Printf("%-10s n=%-6d p50=%-10v p95=%-10v p99=%-10v errors=%d\n",
			name, n, p50.Round(time.Millisecond), p95.Round(time.Millisecond), p99.Round(time.Millisecond), errs)
	}

	measure("baseline")

	// MemCA-FE with the capacity-control attack program, MemCA-BE with
	// an HTTP probe — the real framework over real TCP.
	prog, err := memcafw.NewControlProgram(sys.DB.URL()+"/control/capacity", *d)
	if err != nil {
		return err
	}
	fe, err := memcafw.NewFrontend(memcafw.FrontendConfig{
		ID:      "demo-fe",
		Listen:  "127.0.0.1:0",
		Program: prog,
		Initial: memcafw.ParamsMsg{Intensity: 1, BurstMs: 500, IntervalMs: 2000},
	})
	if err != nil {
		return err
	}
	go func() {
		if serr := fe.Serve(); serr != nil {
			fmt.Fprintln(os.Stderr, "fe:", serr)
		}
	}()
	defer func() {
		if cerr := fe.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "closing fe:", cerr)
		}
	}()

	probe := memcafw.HTTPProbe(sys.Web.URL()+"/", 2*time.Second, col)
	loop := control.DefaultConfig()
	loop.Goal.TargetRT = 300 * time.Millisecond
	loop.ProbePeriod, loop.Window, loop.DecisionEvery = 500*time.Millisecond, 30, 5*time.Second
	be, err := memcafw.NewBackend(memcafw.BackendConfig{
		Config:  loop,
		FEAddr:  fe.Addr(),
		Probe:   probe,
		Initial: attack.Params{Intensity: 1, BurstLength: 500 * time.Millisecond, Interval: 2 * time.Second},
	})
	if err != nil {
		return err
	}
	attackCtx, stopAttack := context.WithCancel(context.Background())
	beDone := make(chan error, 1)
	go func() { beDone <- be.Run(attackCtx) }()

	measure("attack")
	fmt.Printf("           FE executed %d bursts; BE received %d reports; BE window p95 = %v\n",
		fe.Bursts(), len(be.Reports()), be.TailRT().Round(time.Millisecond))

	stopAttack()
	if err := <-beDone; err != nil {
		fmt.Fprintln(os.Stderr, "be:", err)
	}

	measure("recovery")

	return exportTrace(col, be, sys, *traceOut, *otlpOut, *attribOut)
}

// exportTrace assembles the live collector after the run quiesces, writes
// the requested artifacts, and prints the per-request view an aggregate
// monitor cannot give: the >=p99 critical-path decomposition, the
// burst-aligned probe windows, and the coarse counters for contrast.
func exportTrace(col *live.Collector, be *memcafw.Backend, sys *victimd.System, traceOut, otlpOut, attribOut string) error {
	rep := col.Report()
	fmt.Printf("\nlive trace: %d closed traces, %d still open, %d orphan spans, %d events dropped\n",
		len(rep.Attributions), rep.Open, rep.Orphans, rep.DroppedEvents)

	if traceOut != "" {
		if err := telemetry.WriteChromeTrace(traceOut, rep.TierNames, rep.Events); err != nil {
			return err
		}
		fmt.Printf("  chrome trace:    %s (%d span events)\n", traceOut, len(rep.Events))
	}
	if otlpOut != "" {
		spec := telemetry.OTLPSpec{ServicePrefix: "memca-demo", EpochNanos: col.Epoch().UnixNano()}
		if err := telemetry.WriteOTLP(otlpOut, spec, rep.TierNames, rep.Events); err != nil {
			return err
		}
		fmt.Printf("  otlp export:     %s\n", otlpOut)
	}
	if attribOut != "" {
		if err := telemetry.WriteAttributionCSV(attribOut, rep.TierNames, rep.Attributions); err != nil {
			return err
		}
		fmt.Printf("  attribution csv: %s\n", attribOut)
	}
	if len(rep.Attributions) == 0 {
		return nil
	}

	// The tail decomposition over the whole run's >=p99 traces.
	p99 := rep.PercentileRT(99)
	b := telemetry.Summarize(len(rep.TierNames), rep.TailOver(p99))
	fmt.Printf("  >=p99 (%v) tail over %d traces: wait share %.1f%%, retransmission wait share %.1f%%\n",
		p99.Round(time.Millisecond), b.Count, b.WaitShare()*100, share(b.RetransWait, b.RT)*100)
	for i, tn := range rep.TierNames {
		fmt.Printf("    %-4s queue %5.1f%%  service %5.1f%%\n",
			tn, share(b.Queue[i], b.RT)*100, share(b.Service[i], b.RT)*100)
	}

	// Dual-resolution blindness on the live run.
	if tls, err := rep.Timelines(50*time.Millisecond, time.Second); err == nil {
		fmt.Printf("  monitoring blindness: 50ms vs 1s window-mean peak ratio %.2fx\n",
			tls[0].BlindnessRatio(tls[1]))
	}

	// Burst-aligned probe windows: how many bursts contain a tail probe.
	wins := be.BurstWindows(500 * time.Millisecond)
	hit := 0
	for _, w := range wins {
		if w.MaxRT() >= p99 {
			hit++
		}
	}
	fmt.Printf("  burst alignment: %d/%d burst windows contain a >=p99 probe\n", hit, len(wins))

	// The coarse counters an operator would have had instead.
	fmt.Printf("  coarse per-tier counters (the aggregate view):\n")
	for _, tier := range []*victimd.Tier{sys.Web, sys.App, sys.DB} {
		line, err := counterLine(tier.URL() + "/debug/counters")
		if err != nil {
			return err
		}
		fmt.Printf("    %s\n", line)
	}
	return nil
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// counterLine fetches one tier's plaintext counters and compresses them
// to a single display line.
func counterLine(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	vals := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			vals[strings.TrimPrefix(f[0], "victimd.")] = f[1]
		}
	}
	return fmt.Sprintf("%-4s served=%s rejected=%s queue_wait_ns=%s service_ns=%s",
		vals["tier"], vals["served"], vals["rejected"], vals["queue_wait_ns_total"], vals["service_ns_total"]), nil
}

// loadGen is a minimal closed-loop HTTP client population; each request
// is a traced logical request, retries included.
type loadGen struct {
	url     string
	clients int
	traced  *live.Client

	mu    sync.Mutex
	rts   []time.Duration
	errs  int
	stopC chan struct{}
	wg    sync.WaitGroup
}

func newLoadGen(url string, clients int, traced *live.Client) *loadGen {
	return &loadGen{
		url:     url,
		clients: clients,
		traced:  traced,
		stopC:   make(chan struct{}),
	}
}

func (lg *loadGen) Start() {
	for i := 0; i < lg.clients; i++ {
		lg.wg.Add(1)
		go func() {
			defer lg.wg.Done()
			for {
				select {
				case <-lg.stopC:
					return
				default:
				}
				rt, ok := lg.request()
				lg.mu.Lock()
				if ok {
					lg.rts = append(lg.rts, rt)
				} else {
					lg.errs++
				}
				lg.mu.Unlock()
				// Think time keeps the system moderately loaded.
				select {
				case <-lg.stopC:
					return
				case <-time.After(30 * time.Millisecond):
				}
			}
		}()
	}
}

func (lg *loadGen) request() (time.Duration, bool) {
	res := lg.traced.Get(context.Background(), lg.url)
	return res.RT, res.OK
}

func (lg *loadGen) Stop() {
	close(lg.stopC)
	lg.wg.Wait()
}

func (lg *loadGen) Reset() {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.rts = lg.rts[:0]
	lg.errs = 0
}

func (lg *loadGen) Percentiles() (p50, p95, p99 time.Duration, n, errs int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	n, errs = len(lg.rts), lg.errs
	p50 = stats.NearestRank(lg.rts, 0.5)
	p95 = stats.NearestRank(lg.rts, 0.95)
	p99 = stats.NearestRank(lg.rts, 0.99)
	return p50, p95, p99, n, errs
}
