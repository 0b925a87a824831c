package memcafw

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"
)

// FrontendConfig parameterizes a MemCA-FE daemon.
type FrontendConfig struct {
	// ID names this FE in its hello message.
	ID string
	// Listen is the TCP address to serve on (e.g. "127.0.0.1:7070";
	// ":0" picks a free port).
	Listen string
	// Program is the attack program to execute per burst.
	Program AttackProgram
	// Initial are the parameters used until the BE retunes them.
	Initial ParamsMsg
	// Logger receives operational messages; nil disables logging.
	Logger *log.Logger
}

// Frontend is the MemCA-FE daemon: it accepts one BE connection, executes
// the attack program in ON-OFF bursts, applies parameter updates, and
// streams per-burst reports back.
type Frontend struct {
	cfg      FrontendConfig
	listener net.Listener

	mu     sync.Mutex
	params ParamsMsg
	bursts int

	ctx    context.Context
	cancel context.CancelFunc
}

// NewFrontend validates the configuration and binds the listener.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("memcafw: FE ID must not be empty")
	}
	if cfg.Program == nil {
		return nil, fmt.Errorf("memcafw: FE needs an attack program")
	}
	if err := (Envelope{Type: MsgSetParams, Params: &cfg.Initial}).Validate(); err != nil {
		return nil, fmt.Errorf("memcafw: initial params: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("memcafw: listen on %s: %w", cfg.Listen, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Frontend{
		cfg:      cfg,
		listener: ln,
		params:   cfg.Initial,
		ctx:      ctx,
		cancel:   cancel,
	}, nil
}

// Addr returns the bound listen address.
func (f *Frontend) Addr() string { return f.listener.Addr().String() }

// Bursts returns how many bursts have executed.
func (f *Frontend) Bursts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bursts
}

// Params returns the parameters currently in force.
//
//memca:keep TestFEBEEndToEnd observes the retunes the FE received over TCP only through it
func (f *Frontend) Params() ParamsMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.params
}

// Serve accepts BE connections until Close. Each connection gets a fresh
// attack loop; only one connection is served at a time (the paper's
// topology has exactly one BE).
func (f *Frontend) Serve() error {
	for {
		raw, err := f.listener.Accept()
		if err != nil {
			if f.ctx.Err() != nil {
				return nil // closed
			}
			return fmt.Errorf("memcafw: accept: %w", err)
		}
		f.handle(newConn(raw))
	}
}

// Close shuts the FE down: it cancels the active session (whose handler
// waits for its own goroutines before returning to Serve) and unblocks
// Accept.
func (f *Frontend) Close() error {
	f.cancel()
	return f.listener.Close()
}

func (f *Frontend) logf(format string, args ...any) {
	if f.cfg.Logger != nil {
		f.cfg.Logger.Printf(format, args...)
	}
}

// handle runs one BE session: hello, then a writer-side attack loop and a
// reader-side control loop until either ends.
func (f *Frontend) handle(c *conn) {
	defer func() {
		// The session watchdog may have closed the connection already;
		// a double close is expected on every shutdown path.
		if err := c.close(); err != nil && f.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
			f.logf("fe: closing connection: %v", err)
		}
	}()
	if err := c.send(Envelope{Type: MsgHello, Hello: &Hello{FEID: f.cfg.ID, Program: f.cfg.Program.Name()}}); err != nil {
		f.logf("fe: hello: %v", err)
		return
	}
	// Defer order matters: on return the session is canceled first, then
	// the session goroutines are awaited, then the connection closes.
	var wg sync.WaitGroup
	defer wg.Wait()
	sessionCtx, stopSession := context.WithCancel(f.ctx)
	defer stopSession()
	// Unblock the reader when the session (or the whole FE) shuts down:
	// closing the raw connection is the only way out of a blocked recv.
	stopWatch := context.AfterFunc(sessionCtx, func() { _ = c.raw.Close() })
	defer stopWatch()

	reports := make(chan BurstReport)
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.attackLoop(sessionCtx, reports)
		close(reports)
	}()

	// Writer: forward burst reports to the BE.
	writeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := range reports {
			rep := rep
			if err := c.send(Envelope{Type: MsgBurstReport, Report: &rep}); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()

	// Reader: apply control messages until the BE disconnects.
	for {
		env, err := c.recv()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				f.logf("fe: session ended: %v", err)
			}
			stopSession()
			<-writeErr
			return
		}
		switch env.Type {
		case MsgSetParams:
			f.mu.Lock()
			f.params = *env.Params
			f.mu.Unlock()
			f.logf("fe: params now R=%.2f L=%dms I=%dms", env.Params.Intensity, env.Params.BurstMs, env.Params.IntervalMs)
		case MsgStop:
			f.logf("fe: stop requested")
			stopSession()
			<-writeErr
			return
		default:
			f.logf("fe: ignoring unexpected %q", env.Type)
		}
	}
}

// attackLoop fires bursts every I for L at intensity R until ctx ends.
func (f *Frontend) attackLoop(ctx context.Context, reports chan<- BurstReport) {
	for {
		f.mu.Lock()
		p := f.params
		f.mu.Unlock()

		cycleStart := time.Now()
		res, err := f.cfg.Program.Execute(ctx, p.Intensity, time.Duration(p.BurstMs)*time.Millisecond)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.logf("fe: attack program: %v", err)
			return
		}
		f.mu.Lock()
		f.bursts++
		n := f.bursts
		f.mu.Unlock()

		rep := BurstReport{Burst: n, ExecMs: res.Elapsed.Milliseconds(), ResourceShare: res.ResourceShare}
		select {
		case reports <- rep:
		case <-ctx.Done():
			return
		}

		rest := time.Duration(p.IntervalMs)*time.Millisecond - time.Since(cycleStart)
		if rest > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(rest):
			}
		}
	}
}
