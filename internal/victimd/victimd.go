// Package victimd implements a miniature but real 3-tier web system over
// HTTP on localhost: a web tier, an app tier, and a db tier, each a real
// HTTP server with a bounded worker pool (the Q_i of the queueing model)
// and a configurable service time, chained by synchronous HTTP calls
// exactly like the RPC coupling the paper studies. It exists so the
// MemCA-FE/BE framework (cmd/memca-fe, cmd/memca-be) has a live target to
// probe, and so the cross-tier back-pressure mechanics can be observed on
// a real network stack: fill the db tier's pool and watch the web tier's
// connections stall and get rejected.
//
// The db tier exposes a capacity control endpoint (/control/capacity) that
// scales its service time — the hook an attack driver uses to emulate the
// millibottleneck on a machine where real memory contention is not
// available or not desired.
package victimd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"memca/internal/spec"
	"memca/internal/stats"
	"memca/internal/telemetry/live"
	"memca/internal/walltimer"
)

// TierConfig describes one tier of the live system.
type TierConfig struct {
	// Name labels the tier.
	Name string
	// Workers bounds concurrent requests (the thread pool, Q_i).
	Workers int
	// Service is the tier's local processing time at full capacity.
	Service time.Duration
	// Backend is the downstream tier's URL; empty for the last tier.
	Backend string
	// AcquireTimeout is how long a request waits for a worker slot
	// before being shed (the TCP accept queue's patience). Zero sheds
	// immediately.
	AcquireTimeout time.Duration
	// Trace, when non-nil, receives causal span events for requests that
	// carry trace context (the live analogue of the simulator's
	// queueing.Observer). Requests without a trace header are served but
	// not traced. Nil disables tracing with zero overhead beyond one
	// nil check per lifecycle point.
	Trace *live.Collector
	// TierIndex is this tier's index in the collector's tier-name table;
	// only meaningful when Trace is set.
	TierIndex int
}

// Validate reports the first tier error, or nil.
func (c TierConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("victimd: tier name must not be empty")
	}
	if c.Workers <= 0 {
		return fmt.Errorf("victimd: tier %q workers must be positive, got %d", c.Name, c.Workers)
	}
	if c.Service < 0 {
		return fmt.Errorf("victimd: tier %q service must be non-negative, got %v", c.Name, c.Service)
	}
	if c.Trace != nil {
		if names := c.Trace.TierNames(); c.TierIndex < 0 || c.TierIndex >= len(names) {
			return fmt.Errorf("victimd: tier %q trace index %d out of range [0,%d)", c.Name, c.TierIndex, len(names))
		}
	}
	return nil
}

// Tier is one running tier server.
type Tier struct {
	cfg      TierConfig
	listener net.Listener
	server   *http.Server
	client   *http.Client
	okBody   []byte

	// slots holds the idle workers, each one the timer its service wait
	// runs on: a handler takes one to start and returns it when done. A
	// full pool rejects with 503, modelling the finite accept queue.
	slots chan *walltimer.Timer
	// timers is every worker's timer, for Close.
	timers []*walltimer.Timer
	// slowdown scales the service time (1000 = 1.0x), adjusted through
	// the control endpoint. Stored as millis to stay atomic.
	slowdown atomic.Int64

	// Always-on aggregate counters — the coarse view an operator's
	// monitoring would see, deliberately cheaper and blinder than the
	// per-request trace (the paper's detection-blindness contrast).
	served      atomic.Int64
	rejected    atomic.Int64
	inflight    atomic.Int64
	queueWaitNs atomic.Int64
	serviceNs   atomic.Int64

	// features is the always-on windowed feature tracker: the same
	// per-window detection features the simulator's tracer streams,
	// aggregated over wall-clock windows from what this tier can observe
	// (its own queue wait, service time, and sheds — retransmission wait
	// is only attributable across tiers, by the trace collector).
	features *live.WindowTracker
}

// featureWindow is the tier tracker's wall-clock window width. One second
// matches the user-facing monitoring granularity the paper argues is too
// coarse for CPU signals — the point of the feature counters is that the
// attribution features stay discriminative even at this width.
const featureWindow = time.Second

// featureTailOver is the tier-local response-time threshold counted by
// the tail_over feature — a per-tier SLO stand-in for the client-side 1 s
// damage goal.
const featureTailOver = 100 * time.Millisecond

// StartTier binds a tier to addr (":0" for an ephemeral port) and serves
// in a background goroutine until Close.
func StartTier(addr string, cfg TierConfig) (*Tier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("victimd: listen %s: %w", addr, err)
	}
	features, err := live.NewWindowTracker(featureWindow, featureTailOver)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	// Keep an idle connection for every worker that may call downstream
	// at once, so back-pressure episodes reuse connections rather than
	// dialing new ones (the default transport keeps 2 per host).
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = cfg.Workers
	t := &Tier{
		cfg:      cfg,
		listener: ln,
		client:   &http.Client{Transport: transport, Timeout: 10 * time.Second},
		okBody:   []byte(cfg.Name + " ok\n"),
		slots:    make(chan *walltimer.Timer, cfg.Workers),
		features: features,
	}
	for range cfg.Workers {
		tm, err := walltimer.New()
		if err != nil {
			// The timer failure is the error to report.
			_ = t.closeTimers()
			_ = ln.Close()
			return nil, fmt.Errorf("victimd: tier %s worker timer: %w", cfg.Name, err)
		}
		t.timers = append(t.timers, tm)
		t.slots <- tm
	}
	t.slowdown.Store(1000)
	mux := http.NewServeMux()
	mux.HandleFunc("/", t.handle)
	mux.HandleFunc("/control/capacity", t.handleCapacity)
	mux.HandleFunc("/debug/counters", t.handleCounters)
	t.server = &http.Server{Handler: mux}
	go func() {
		if err := t.server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The tier is torn down by Close; other serve errors are
			// fatal for a daemon but must not crash a test host.
			fmt.Printf("victimd: tier %s serve: %v\n", cfg.Name, err)
		}
	}()
	return t, nil
}

// URL returns the tier's base URL.
func (t *Tier) URL() string { return "http://" + t.listener.Addr().String() }

// Rejected returns the number of requests shed by the full pool.
//
//memca:keep perfbench (a separate module) reports each tier's rejections from it
func (t *Tier) Rejected() int64 { return t.rejected.Load() }

// SetCapacityMultiplier scales the tier's service rate: 0.1 means work
// takes 10x longer (the MemCA millibottleneck lever). A multiplier so
// small that the stretched service overflows time.Duration is an error.
func (t *Tier) SetCapacityMultiplier(m float64) error {
	if m <= 0 || m > 1 || math.IsNaN(m) {
		return fmt.Errorf("victimd: multiplier must be in (0,1], got %v", m)
	}
	// float64(math.MaxInt64) is 2^63, the first value past the bound.
	slowdown := 1000 / m
	if slowdown >= math.MaxInt64 || float64(t.cfg.Service)*math.Trunc(slowdown)/1000 >= math.MaxInt64 {
		return fmt.Errorf("victimd: multiplier %v stretches the %v service past %v, the longest duration", m, t.cfg.Service, time.Duration(math.MaxInt64))
	}
	t.slowdown.Store(int64(slowdown))
	return nil
}

// serviceTime is the tier's local work, stretched by the current
// slowdown.
func (t *Tier) serviceTime() time.Duration {
	return time.Duration(float64(t.cfg.Service) * float64(t.slowdown.Load()) / 1000)
}

// Close shuts the tier down. A handler still in its service wait wakes
// and takes the hang-up path.
func (t *Tier) Close() error {
	err := t.server.Close()
	if terr := t.closeTimers(); err == nil {
		err = terr
	}
	t.client.CloseIdleConnections()
	return err
}

// closeTimers closes every worker timer, returning the first error.
func (t *Tier) closeTimers() error {
	var first error
	for _, tm := range t.timers {
		if err := tm.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *Tier) handle(w http.ResponseWriter, r *http.Request) {
	// Trace context rides in on the request header; requests without it
	// (or with tracing disabled) take the identical path minus recording.
	var traceID uint64
	var attempt int
	traced := false
	if t.cfg.Trace != nil {
		traceID, attempt, traced = live.ParseTraceHeader(r.Header.Get(live.TraceHeader))
	}
	if traced {
		t.cfg.Trace.Record(traceID, live.KindTierRequest, t.cfg.TierIndex, attempt, 0)
	}

	enq := time.Now()
	timer := t.acquire(r.Context())
	if timer == nil {
		t.rejected.Add(1)
		waited := time.Since(enq)
		t.features.Observe(time.Now(), waited, waited, 0, 0, 1, 1)
		if traced {
			t.cfg.Trace.Record(traceID, live.KindDrop, t.cfg.TierIndex, attempt, 0)
		}
		http.Error(w, "pool exhausted", http.StatusServiceUnavailable)
		return
	}
	wait := time.Since(enq)
	t.queueWaitNs.Add(wait.Nanoseconds())
	t.inflight.Add(1)
	defer func() {
		t.inflight.Add(-1)
		t.slots <- timer
	}()

	if traced {
		t.cfg.Trace.Record(traceID, live.KindServiceStart, t.cfg.TierIndex, attempt, 0)
	}
	svcStart := time.Now()
	if d := t.serviceTime(); d > 0 && !timer.Wait(r.Context(), d) {
		// The caller hung up mid-service (or the tier closed); close the
		// span so the trace never reports an orphan service interval.
		svc := time.Since(svcStart)
		t.serviceNs.Add(svc.Nanoseconds())
		t.features.Observe(time.Now(), time.Since(enq), wait, svc, 0, 1, 0)
		if traced {
			t.cfg.Trace.Record(traceID, live.KindServiceEnd, t.cfg.TierIndex, attempt, 0)
		}
		return
	}
	svc := time.Since(svcStart)
	t.serviceNs.Add(svc.Nanoseconds())
	if traced {
		t.cfg.Trace.Record(traceID, live.KindServiceEnd, t.cfg.TierIndex, attempt, 0)
	}

	// Synchronous downstream call while holding the worker slot — the
	// RPC coupling that propagates back-pressure upstream. The time spent
	// here is attributed at the downstream tier, not this one.
	if t.cfg.Backend != "" {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, t.cfg.Backend, nil)
		if err != nil {
			t.features.Observe(time.Now(), time.Since(enq), wait, svc, 0, 1, 1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if traced {
			req.Header.Set(live.TraceHeader, live.FormatTraceHeader(traceID, attempt))
		}
		resp, err := t.client.Do(req)
		if err != nil {
			t.features.Observe(time.Now(), time.Since(enq), wait, svc, 0, 1, 1)
			http.Error(w, "backend unreachable", http.StatusBadGateway)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		status := resp.StatusCode
		if err := resp.Body.Close(); err != nil {
			t.features.Observe(time.Now(), time.Since(enq), wait, svc, 0, 1, 1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if status != http.StatusOK {
			// The downstream tier shed or choked on this request: a drop
			// from this tier's vantage point, whatever the exact cause.
			t.features.Observe(time.Now(), time.Since(enq), wait, svc, 0, 1, 1)
			http.Error(w, "backend congested", http.StatusBadGateway)
			return
		}
	}
	if traced {
		t.cfg.Trace.Record(traceID, live.KindTierRespond, t.cfg.TierIndex, attempt, 0)
	}
	t.served.Add(1)
	t.features.Observe(time.Now(), time.Since(enq), wait, svc, 0, 1, 0)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(t.okBody); err != nil {
		return
	}
}

// acquire takes an idle worker, waiting up to the configured timeout. It
// returns the worker's timer, or nil when the request is shed.
func (t *Tier) acquire(ctx context.Context) *walltimer.Timer {
	select {
	case tm := <-t.slots:
		return tm
	default:
	}
	if t.cfg.AcquireTimeout <= 0 {
		return nil
	}
	select {
	case tm := <-t.slots:
		return tm
	case <-time.After(t.cfg.AcquireTimeout):
		return nil
	case <-ctx.Done():
		return nil
	}
}

func (t *Tier) handleCapacity(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("multiplier")
	m, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		http.Error(w, "multiplier must be a float", http.StatusBadRequest)
		return
	}
	if err := t.SetCapacityMultiplier(m); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handleCounters serves the always-on aggregate counters as plaintext
// "name value" lines (expvar-style, but grep/awk-friendly). This is the
// coarse operator view the paper contrasts with per-request tracing: it
// shows load and shedding totals but cannot attribute any single slow
// request to a cause.
func (t *Tier) handleCounters(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	body := fmt.Sprintf(
		"victimd.tier %s\n"+
			"victimd.workers %d\n"+
			"victimd.served %d\n"+
			"victimd.rejected %d\n"+
			"victimd.inflight %d\n"+
			"victimd.queue_wait_ns_total %d\n"+
			"victimd.service_ns_total %d\n"+
			"victimd.slowdown_permille %d\n",
		t.cfg.Name, t.cfg.Workers, t.served.Load(), t.rejected.Load(),
		t.inflight.Load(), t.queueWaitNs.Load(), t.serviceNs.Load(),
		t.slowdown.Load())
	// The last completed feature window — the per-window attribution view
	// the aggregate totals above cannot provide. Absent until the first
	// window closes.
	if feat, start, ok := t.features.Last(time.Now()); ok {
		body += fmt.Sprintf(
			"victimd.feat_window_ms %d\n"+
				"victimd.feat_window_start_ms %d\n"+
				"victimd.feat_count %d\n"+
				"victimd.feat_attempts %d\n"+
				"victimd.feat_drops %d\n"+
				"victimd.feat_tail_over %d\n"+
				"victimd.feat_drop_rate %.4f\n"+
				"victimd.feat_queue_share %.4f\n"+
				"victimd.feat_service_share %.4f\n"+
				"victimd.feat_mean_rt_us %d\n",
			t.features.Res().Milliseconds(), start.Milliseconds(),
			feat.Count, feat.Attempts, feat.Drops, feat.TailOver,
			feat.DropRate(), feat.QueueShare(), feat.ServiceShare(),
			feat.MeanRT().Microseconds())
	}
	if _, err := io.WriteString(w, body); err != nil {
		// The client disconnected mid-response; nothing left to do.
		return
	}
}

// System is a running 3-tier chain.
type System struct {
	Web, App, DB *Tier
}

// SystemConfig describes the live 3-tier chain.
type SystemConfig struct {
	// System is the chain front to back, in the vocabulary the planner
	// and the simulator read. StartSystem refuses what a live chain
	// cannot run; see checkSystem.
	System spec.System
	// Trace, when non-nil, instruments every tier into one shared
	// collector, tier i at trace index i. The collector's tier-name table
	// must have an entry per tier; TierNames is the default chain's.
	Trace *live.Collector
}

// acquirePatience is how long a request waits for a worker before its
// tier sheds it, standing in for a TCP accept queue. It is the live
// chain's one semantic difference from the simulator, whose full front
// tier drops at once and whose full interior tier blocks the caller.
const acquirePatience = 20 * time.Millisecond

// TierNames returns the default chain's tier labels in trace-index order,
// the table to size a live.Collector with when tracing it.
func TierNames() []string {
	tiers := DefaultSystem().System.Tiers
	names := make([]string, len(tiers))
	for i, t := range tiers {
		names[i] = t.Name
	}
	return names
}

// DefaultSystem returns a laptop-scale chain mirroring the simulation's
// proportions.
func DefaultSystem() SystemConfig {
	return SystemConfig{System: spec.System{Tiers: []spec.TierSpec{
		{Name: "web", Threads: 32, Servers: 32, Service: 200 * time.Microsecond},
		{Name: "app", Threads: 16, Servers: 16, Service: 500 * time.Microsecond},
		{Name: "db", Threads: 8, Servers: 8, Service: 2 * time.Millisecond},
	}}}
}

// checkSystem reports why a live chain cannot run sys, or nil: it runs
// exactly three tiers (System's Web, App and DB), each one process whose
// workers sleep through their base service (Servers = Threads, Replicas
// and DemandFactor 0 or 1), with pools descending front to back.
func checkSystem(sys spec.System) error {
	if len(sys.Tiers) != 3 {
		return fmt.Errorf("victimd: the live chain has 3 tiers, the spec %d", len(sys.Tiers))
	}
	if err := sys.Validate(); err != nil {
		return fmt.Errorf("victimd: %w", err)
	}
	for _, t := range sys.Tiers {
		switch {
		case t.Servers != t.Threads:
			return fmt.Errorf("victimd: tier %q Servers %d must equal Threads %d: a worker sleeps through its service", t.Name, t.Servers, t.Threads)
		case t.Replicas > 1:
			return fmt.Errorf("victimd: tier %q Replicas %d: a live tier is one instance", t.Name, t.Replicas)
		case t.DemandFactor != 0 && !stats.ApproxEqual(t.DemandFactor, 1):
			return fmt.Errorf("victimd: tier %q DemandFactor %v: a live tier serves its base service time", t.Name, t.DemandFactor)
		}
	}
	if err := sys.CheckCondition1(); err != nil {
		return fmt.Errorf("victimd: %w", err)
	}
	return nil
}

// StartSystem launches the chain's tiers on ephemeral localhost ports,
// back to front, each calling the one behind it.
func StartSystem(cfg SystemConfig) (*System, error) {
	if err := checkSystem(cfg.System); err != nil {
		return nil, err
	}
	specs := cfg.System.Tiers
	tiers := make([]*Tier, len(specs))
	backend := ""
	for i := len(specs) - 1; i >= 0; i-- {
		t, err := StartTier("127.0.0.1:0", TierConfig{
			Name: specs[i].Name, Workers: specs[i].Threads, Service: specs[i].Service,
			Backend: backend, AcquireTimeout: acquirePatience, Trace: cfg.Trace, TierIndex: i,
		})
		if err != nil {
			for _, started := range tiers[i+1:] {
				_ = started.Close()
			}
			return nil, err
		}
		tiers[i], backend = t, t.URL()+"/"
	}
	return &System{Web: tiers[0], App: tiers[1], DB: tiers[2]}, nil
}

// Close tears the chain down, returning the first error.
func (s *System) Close() error {
	var first error
	for _, t := range []*Tier{s.Web, s.App, s.DB} {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
