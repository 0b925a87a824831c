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
	"memca/internal/stats"
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
	// Report is the burst's telemetry.
	Report TimedReport
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

// BackendConfig parameterizes MemCA-BE.
type BackendConfig struct {
	// FEAddr is the frontend's TCP address.
	FEAddr string
	// Probe measures the target's response time.
	Probe ProbeFunc
	// ProbePeriod separates probes (default 1 s).
	ProbePeriod time.Duration
	// Window is how many recent probes the percentile uses (default 30).
	Window int
	// Goal is the damage/stealth objective.
	Goal control.Goal
	// Bounds clamp the commander's search.
	Bounds control.Bounds
	// Initial are the attack parameters to start from.
	Initial attack.Params
	// DecisionEvery separates commander decisions (default 5 s).
	DecisionEvery time.Duration
	// Logger receives operational messages; nil disables logging.
	Logger *log.Logger
}

// Backend is the MemCA-BE controller: it probes the target, smooths the
// tail signal, decides new parameters, and pushes them to the FE.
type Backend struct {
	cfg       BackendConfig
	conn      *conn
	commander *control.Commander

	mu       sync.Mutex
	samples  []ProbeSample
	reports  []TimedReport
	feHello  Hello
	lastSent attack.Params

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewBackend validates the configuration, dials the FE, and reads its
// hello.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.Probe == nil {
		return nil, fmt.Errorf("memcafw: BE needs a probe function")
	}
	if cfg.ProbePeriod <= 0 {
		cfg.ProbePeriod = time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 30
	}
	if cfg.DecisionEvery <= 0 {
		cfg.DecisionEvery = 5 * time.Second
	}
	commander, err := control.NewCommander(cfg.Goal, cfg.Bounds, cfg.Initial)
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
	ctx, cancel := context.WithCancel(context.Background())
	b := &Backend{
		cfg:       cfg,
		conn:      c,
		commander: commander,
		feHello:   *env.Hello,
		lastSent:  cfg.Initial,
		ctx:       ctx,
		cancel:    cancel,
	}
	return b, nil
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
		w := BurstWindow{
			Report: r,
			Start:  r.At.Add(-time.Duration(r.ExecMs)*time.Millisecond - pad),
			End:    r.At.Add(pad),
		}
		for _, s := range samples {
			if !s.At.Before(w.Start) && !s.At.After(w.End) {
				w.Samples = append(w.Samples, s)
			}
		}
		out = append(out, w)
	}
	return out
}

// TailRT returns the configured-window percentile of the most recent
// probe response times.
func (b *Backend) TailRT(pct float64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	recent := b.samples
	if len(recent) > b.cfg.Window {
		recent = recent[len(recent)-b.cfg.Window:]
	}
	rts := make([]time.Duration, len(recent))
	for i, s := range recent {
		rts[i] = s.RT
	}
	return stats.NearestRank(rts, pct/100)
}

// Run drives the control loop until ctx is canceled or the FE disconnects.
// It sends the initial parameters immediately, probes continuously, and
// decides periodically.
func (b *Backend) Run(ctx context.Context) error {
	if err := b.sendParams(b.cfg.Initial); err != nil {
		return err
	}

	// Reader: collect burst reports.
	readErr := make(chan error, 1)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			env, err := b.conn.recv()
			if err != nil {
				readErr <- err
				return
			}
			if env.Type == MsgBurstReport {
				b.mu.Lock()
				b.reports = append(b.reports, TimedReport{BurstReport: *env.Report, At: time.Now()})
				b.mu.Unlock()
			}
		}
	}()

	// Prober: one probe per period.
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		ticker := time.NewTicker(b.cfg.ProbePeriod)
		defer ticker.Stop()
		for {
			select {
			case <-b.ctx.Done():
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
				rt, err := b.cfg.Probe(ctx)
				if err != nil {
					b.logf("be: probe: %v", err)
					continue
				}
				b.record(rt)
			}
		}
	}()

	decide := time.NewTicker(b.cfg.DecisionEvery)
	defer decide.Stop()
	for {
		select {
		case <-ctx.Done():
			return b.shutdown()
		case err := <-readErr:
			b.cancel()
			b.wg.Wait()
			return fmt.Errorf("memcafw: FE connection lost: %w", err)
		case <-decide.C:
			obs := control.Observation{
				TailRT:          b.TailRT(b.cfg.Goal.Percentile),
				Millibottleneck: b.lastExec(),
			}
			next := b.commander.Decide(obs)
			if next != b.lastSent {
				if err := b.sendParams(next); err != nil {
					b.cancel()
					b.wg.Wait()
					return err
				}
				b.logf("be: retuned to R=%.2f L=%v I=%v (tail %v)",
					next.Intensity, next.BurstLength, next.Interval, obs.TailRT)
			}
		}
	}
}

// shutdown tells the FE to stop and releases resources.
func (b *Backend) shutdown() error {
	if err := b.conn.send(Envelope{Type: MsgStop}); err != nil {
		b.logf("be: sending stop: %v", err)
	}
	b.cancel()
	err := b.conn.close()
	b.wg.Wait()
	if err != nil {
		return fmt.Errorf("memcafw: closing FE connection: %w", err)
	}
	return nil
}

// record appends one timestamped probe sample. The full history is kept
// (one sample per probe period, bounded by run length) so burst windows
// can be cut out of it after the fact; TailRT reads only the recent
// cfg.Window samples.
func (b *Backend) record(rt time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples = append(b.samples, ProbeSample{At: time.Now(), RT: rt})
}

// lastExec returns the FE's latest execution-time report as the
// millibottleneck estimate, or 0 when none arrived yet.
func (b *Backend) lastExec() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.reports) == 0 {
		return 0
	}
	return time.Duration(b.reports[len(b.reports)-1].ExecMs) * time.Millisecond
}

func (b *Backend) sendParams(p attack.Params) error {
	msg := paramsToMsg(p.Intensity, p.BurstLength, p.Interval)
	if err := b.conn.send(Envelope{Type: MsgSetParams, Params: &msg}); err != nil {
		return err
	}
	b.lastSent = p
	return nil
}

func (b *Backend) logf(format string, args ...any) {
	if b.cfg.Logger != nil {
		b.cfg.Logger.Printf(format, args...)
	}
}
