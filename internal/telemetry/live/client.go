package live

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ClientConfig parameterizes an instrumented HTTP client.
type ClientConfig struct {
	// Collector receives the client-side span events.
	Collector *Collector
	// HTTP is the underlying client; nil uses a 5-second-timeout default.
	HTTP *http.Client
	// MaxAttempts bounds submissions per logical request, counting the
	// first (default 1: no retransmission).
	MaxAttempts int
	// Backoff is the base retransmission delay; attempt n waits
	// Backoff << (n-1), the binary exponential backoff of the paper's
	// RTO-driven client model. Default 50ms.
	Backoff time.Duration
}

// Client issues HTTP requests with full client-side trace instrumentation:
// it mints the trace ID, injects the trace header, records submit/complete
// events, and on a failed attempt schedules a retransmission of the same
// trace ID with exponential backoff — the live mirror of the simulator's
// queueing.Client lifecycle.
type Client struct {
	col         *Collector
	http        *http.Client
	maxAttempts int
	backoff     time.Duration
}

// NewClient validates the configuration and builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Collector == nil {
		return nil, fmt.Errorf("live: client needs a collector")
	}
	if cfg.MaxAttempts < 0 {
		return nil, fmt.Errorf("live: MaxAttempts must be >= 0, got %d", cfg.MaxAttempts)
	}
	if cfg.Backoff < 0 {
		return nil, fmt.Errorf("live: Backoff must be >= 0, got %v", cfg.Backoff)
	}
	c := &Client{
		col:         cfg.Collector,
		http:        cfg.HTTP,
		maxAttempts: cfg.MaxAttempts,
		backoff:     cfg.Backoff,
	}
	if c.http == nil {
		c.http = &http.Client{Timeout: 5 * time.Second}
	}
	if c.maxAttempts == 0 {
		c.maxAttempts = 1
	}
	if c.backoff == 0 {
		c.backoff = 50 * time.Millisecond
	}
	return c, nil
}

// Result is the outcome of one logical traced request.
type Result struct {
	// TraceID identifies the request across all attempts.
	TraceID uint64
	// Status is the final HTTP status (0 on transport error).
	Status int
	// RT is the client response time across all attempts, including
	// retransmission waits.
	RT time.Duration
	// Attempts counts submissions.
	Attempts int
	// OK reports a 200 on some attempt.
	OK bool
	// Err is the last transport error, or nil.
	Err error
}

// Get issues one logical GET: attempts with the same trace ID until one
// succeeds, the attempt budget is spent, or ctx ends. A trace always
// closes: with a complete event on success, an abandoned event otherwise.
func (c *Client) Get(ctx context.Context, url string) Result {
	id := c.col.NextTraceID()
	start := c.col.Now()
	res := Result{TraceID: id}
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		c.col.Record(id, KindSubmit, ClientTier, attempt, 0)
		status, err := c.do(ctx, url, id, attempt)
		res.Status, res.Err = status, err
		if err == nil && status == http.StatusOK {
			c.col.Record(id, KindComplete, ClientTier, attempt, 0)
			res.OK = true
			res.RT = c.col.Now() - start
			return res
		}
		if attempt+1 >= c.maxAttempts || ctx.Err() != nil {
			c.col.Record(id, KindAbandoned, ClientTier, attempt, 0)
			res.RT = c.col.Now() - start
			return res
		}
		wait := c.backoff << uint(attempt)
		c.col.Record(id, KindRetransmitScheduled, ClientTier, attempt+1, c.col.Now()+wait)
		select {
		case <-ctx.Done():
			c.col.Record(id, KindAbandoned, ClientTier, attempt, 0)
			res.RT = c.col.Now() - start
			return res
		case <-time.After(wait):
		}
	}
}

func (c *Client) do(ctx context.Context, url string, id uint64, attempt int) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(TraceHeader, FormatTraceHeader(id, attempt))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		return resp.StatusCode, cerr
	}
	return resp.StatusCode, nil
}
