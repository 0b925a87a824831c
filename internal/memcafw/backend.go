package memcafw

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"memca/internal/attack"
	"memca/internal/control"
	"memca/internal/queueing"
	"memca/internal/telemetry/live"
)

// ProbeFunc measures the target system's response time once. HTTPProbe
// adapts a URL; tests inject synthetic probes.
type ProbeFunc func(ctx context.Context) (time.Duration, error)

// HTTPProbe returns a ProbeFunc that times a GET against the target web
// system's front door — the lightweight probing of Section IV-C. With a
// non-nil col each probe is also a client-side causal trace: it mints a
// trace ID, injects the trace header so every victimd tier records its
// spans, and closes the trace (complete on 200, abandoned on timeout or
// refusal), so the probes appear in the collector's report alongside the
// load generator's traffic. A nil col probes untraced.
func HTTPProbe(url string, timeout time.Duration, col *live.Collector) ProbeFunc {
	client := &http.Client{Timeout: timeout}
	return func(ctx context.Context) (time.Duration, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, fmt.Errorf("memcafw: building probe: %w", err)
		}
		var id uint64
		record := func(kind queueing.SpanKind) {
			if col != nil {
				col.Record(id, kind, live.ClientTier, 0, 0)
			}
		}
		if col != nil {
			id = col.NextTraceID()
			req.Header.Set(live.TraceHeader, live.FormatTraceHeader(id, 0))
		}
		start := time.Now()
		record(live.KindSubmit)
		resp, err := client.Do(req)
		if err != nil {
			// A timed-out probe is a damage signal: report the timeout
			// itself as the observed latency.
			record(live.KindAbandoned)
			return timeout, nil
		}
		status := resp.StatusCode
		if err := resp.Body.Close(); err != nil {
			record(live.KindAbandoned)
			return 0, fmt.Errorf("memcafw: closing probe body: %w", err)
		}
		if status == http.StatusOK {
			record(live.KindComplete)
		} else {
			record(live.KindAbandoned)
		}
		return time.Since(start), nil
	}
}

// ProbeSample is one timestamped probe measurement. The BE keeps the full
// timestamped history (not just the smoothing window) so tail spikes can
// be aligned with attack bursts after the run.
type ProbeSample struct {
	// At is when the probe completed.
	At time.Time
	// RT is the observed response time.
	RT time.Duration
}

// TimedReport is a burst report stamped with its receive time at the BE,
// anchoring the FE's relative telemetry on the BE's clock.
type TimedReport struct {
	BurstReport
	// At is when the BE received the report (just after the burst ended).
	At time.Time
}

// BurstWindow aligns one attack burst with the probe samples observed
// around it: the window spans the burst's execution (receive time minus
// the reported execution time) padded on both sides, so the drain phase
// after the burst — where the paper's tail amplification lives — is
// captured too.
type BurstWindow struct {
	// Start and End bound the window.
	Start, End time.Time
	// Samples are the probe measurements inside the window, in time order.
	Samples []ProbeSample
}

// MaxRT returns the worst probe response time in the window, or 0 when
// no probe landed inside it.
func (w BurstWindow) MaxRT() time.Duration {
	var max time.Duration
	for _, s := range w.Samples {
		if s.RT > max {
			max = s.RT
		}
	}
	return max
}

// BackendConfig parameterizes MemCA-BE: the feedback loop's Config
// (goal, bounds, probe period, window, decision interval) plus the FE to
// drive and how to probe the target.
type BackendConfig struct {
	control.Config
	// FEAddr is the frontend's TCP address.
	FEAddr string
	// Probe measures the target's response time.
	Probe ProbeFunc
	// Initial are the attack parameters to start from.
	Initial attack.Params
	// Logger receives operational messages; nil disables logging.
	Logger *log.Logger
}

// Backend is the MemCA-BE controller: it probes the target on one ticker,
// decides new parameters through the feedback loop on another, and
// pushes them to the FE.
type Backend struct {
	cfg     BackendConfig
	conn    *conn
	feHello Hello

	// mu guards the loop and the histories that the prober and the FE
	// reader append to.
	mu      sync.Mutex
	loop    *control.Loop
	samples []ProbeSample
	reports []TimedReport

	wg sync.WaitGroup
}

// NewBackend validates the configuration, dials the FE, and reads its
// hello.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.Probe == nil {
		return nil, fmt.Errorf("memcafw: BE needs a probe function")
	}
	loop, err := control.NewLoop(cfg.Config, cfg.Initial)
	if err != nil {
		return nil, err
	}
	raw, err := net.Dial("tcp", cfg.FEAddr)
	if err != nil {
		return nil, fmt.Errorf("memcafw: dialing FE %s: %w", cfg.FEAddr, err)
	}
	c := newConn(raw)
	env, err := c.recv()
	if err != nil {
		_ = c.close()
		return nil, fmt.Errorf("memcafw: waiting for hello: %w", err)
	}
	if env.Type != MsgHello {
		_ = c.close()
		return nil, fmt.Errorf("memcafw: expected hello, got %q", env.Type)
	}
	return &Backend{cfg: cfg, conn: c, loop: loop, feHello: *env.Hello}, nil
}

// FEInfo returns the connected frontend's hello.
func (b *Backend) FEInfo() Hello { return b.feHello }

// Reports returns a copy of the burst reports received so far, each
// stamped with its receive time.
func (b *Backend) Reports() []TimedReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TimedReport, len(b.reports))
	copy(out, b.reports)
	return out
}

// ProbeSamples returns a copy of the full timestamped probe history.
func (b *Backend) ProbeSamples() []ProbeSample {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ProbeSample, len(b.samples))
	copy(out, b.samples)
	return out
}

// BurstWindows aligns every received burst report with the probe samples
// around it: each window covers the burst's execution plus pad on both
// sides. This is the timestamped replacement for the old flat RT ring —
// it lets live attribution correlate tail spans with burst intervals.
func (b *Backend) BurstWindows(pad time.Duration) []BurstWindow {
	reports := b.Reports()
	samples := b.ProbeSamples()
	out := make([]BurstWindow, 0, len(reports))
	for _, r := range reports {
		// Two steps: ExecMs ≤ maxMs keeps exec a valid Duration, but
		// exec+pad can pass the shortest one.
		exec := time.Duration(r.ExecMs) * time.Millisecond
		w := BurstWindow{Start: r.At.Add(-exec).Add(-pad), End: r.At.Add(pad)}
		for _, s := range samples {
			if !s.At.Before(w.Start) && !s.At.After(w.End) {
				w.Samples = append(w.Samples, s)
			}
		}
		out = append(out, w)
	}
	return out
}

// TailRT returns the goal percentile of the loop's probe window.
func (b *Backend) TailRT() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loop.TailRT()
}

// Run drives the control loop until ctx is canceled or the FE disconnects.
// It sends the initial parameters immediately, probes continuously, and
// decides periodically. On every way out it cancels the one context the
// prober and an in-flight probe run under, so it returns without waiting
// out a probe's timeout.
func (b *Backend) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := b.sendParams(b.cfg.Initial); err != nil {
		return err
	}

	// Reader: collect burst reports.
	readErr := make(chan error, 1)
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		for {
			env, err := b.conn.recv()
			if err != nil {
				readErr <- err
				return
			}
			if env.Type == MsgBurstReport {
				b.receive(TimedReport{BurstReport: *env.Report, At: time.Now()})
			}
		}
	}()

	// Prober: one probe per period.
	go func() {
		defer b.wg.Done()
		ticker := time.NewTicker(b.cfg.ProbePeriod)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				rt, err := b.cfg.Probe(ctx)
				if err != nil {
					b.logf("be: probe: %v", err)
					continue
				}
				b.record(time.Now(), rt)
			}
		}
	}()

	decide := time.NewTicker(b.cfg.DecisionEvery)
	defer decide.Stop()
	var err error
run:
	for {
		select {
		case <-ctx.Done():
			if serr := b.conn.send(Envelope{Type: MsgStop}); serr != nil {
				b.logf("be: sending stop: %v", serr)
			}
			break run
		case rerr := <-readErr:
			err = fmt.Errorf("memcafw: FE connection lost: %w", rerr)
			break run
		case <-decide.C:
			if next, changed := b.decide(); changed {
				if err = b.sendParams(next); err != nil {
					break run
				}
				b.logf("be: retuned to R=%.2f L=%v I=%v (tail %v)",
					next.Intensity, next.BurstLength, next.Interval, b.TailRT())
			}
		}
	}
	// Closing the connection ends the reader; cancel ends the prober.
	cancel()
	if cerr := b.conn.close(); cerr != nil && err == nil {
		err = fmt.Errorf("memcafw: closing FE connection: %w", cerr)
	}
	b.wg.Wait()
	return err
}

// record adds one timestamped probe sample to the full history and to the
// loop's window. The history (one sample per probe period, bounded by run
// length) lets burst windows be cut out of it after the fact; decisions
// read only the window.
func (b *Backend) record(at time.Time, rt time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples = append(b.samples, ProbeSample{At: at, RT: rt})
	b.loop.Record(rt)
}

// receive keeps one burst report from the FE.
func (b *Backend) receive(r TimedReport) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reports = append(b.reports, r)
}

// decide makes one decision of the loop and reports whether it changed
// the parameters. The millibottleneck estimate is the FE's latest
// execution-time report, or 0 (unknown) before the first.
//
//memca:hotpath
func (b *Backend) decide() (next attack.Params, changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var mb time.Duration
	if n := len(b.reports); n > 0 {
		mb = time.Duration(b.reports[n-1].ExecMs) * time.Millisecond
	}
	prev := b.loop.Commander().Params()
	next = b.loop.Decide(mb)
	return next, next != prev
}

func (b *Backend) sendParams(p attack.Params) error {
	msg := paramsToMsg(p.Intensity, p.BurstLength, p.Interval)
	return b.conn.send(Envelope{Type: MsgSetParams, Params: &msg})
}

func (b *Backend) logf(format string, args ...any) {
	if b.cfg.Logger != nil {
		b.cfg.Logger.Printf(format, args...)
	}
}
