package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"memca/internal/telemetry/live"
	"memca/internal/victimd"
)

const (
	// liveRate is the open-loop Poisson arrival rate. It keeps the two
	// client connections about 30% busy; with 2 connections on 2 shared
	// CPUs a max-rate search would measure the host scheduler.
	liveRate = 100.0
	// liveConns caps the client's connections to the web tier.
	liveConns = 2
	// liveEpochs is how many times a run restarts the chain; each restart
	// is one set-up sample.
	liveEpochs = 4
	// liveExtraSetups are extra start/first-request/close cycles after
	// each epoch, so setup_s is a median over enough samples.
	liveExtraSetups = 3
	// liveMaxInFlight bounds outstanding requests; a full pool blocks the
	// generator, which then shows up as lateness.
	liveMaxInFlight = 256
	// lateLimit is the generator lateness p99 beyond which a run is
	// flagged: its requests no longer left on schedule, so low latency
	// could be an artefact of a stalled generator.
	lateLimit = 50 * time.Millisecond
)

// liveChain runs the live victimd chain with one collector on all three
// tiers, driven by an in-process open-loop Poisson generator.
type liveChain struct {
	rng   *rand.Rand
	sched hash.Hash // fingerprint of every due time the generator produced
	// afterStart, when set, is called with each freshly started chain
	// before its load (tests use it to close a tier mid-run).
	afterStart func(*victimd.System)

	tiers [3]tierTotals
}

type tierTotals struct {
	served, rejected   int64
	queueNs, serviceNs int64
}

func (w *liveChain) fingerprint() string {
	return "schedule-sha256 " + hex.EncodeToString(w.sched.Sum(nil))
}

// warm starts and stops one chain, so the first measured set-up does not
// pay for the process's one-time initialisation of net/http and the
// runtime.
func (w *liveChain) warm(b *bench) error {
	w.rng = rand.New(rand.NewSource(b.seed))
	w.sched = sha256.New()
	c, _, err := startChain(1<<12, nil, -1)
	if err != nil {
		return err
	}
	return c.close()
}

// chain is one running victimd system with its collector and client.
type chain struct {
	col       *live.Collector
	sys       *victimd.System
	client    *live.Client
	transport *http.Transport
}

// startChain is the live set-up: collector, system and client, up to the
// first successful request.
func startChain(events int, sp *spans, op int) (*chain, time.Duration, error) {
	t0 := time.Now()
	c := &chain{}
	var err error
	id := sp.begin("live.new", op, -1)
	c.col, err = live.New(live.Config{Tiers: victimd.TierNames(), Events: events})
	sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	cfg := victimd.DefaultSystem()
	cfg.Trace = c.col
	id = sp.begin("victimd.start", op, -1)
	c.sys, err = victimd.StartSystem(cfg)
	sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	c.transport = &http.Transport{MaxConnsPerHost: liveConns, MaxIdleConnsPerHost: liveConns}
	c.client, err = live.NewClient(live.ClientConfig{
		Collector:   c.col,
		HTTP:        &http.Client{Transport: c.transport, Timeout: 5 * time.Second},
		MaxAttempts: 3,
	})
	if err != nil {
		_ = c.close()
		return nil, 0, err
	}
	id = sp.begin("live.first_request", op, -1)
	r := c.client.Get(context.Background(), c.sys.Web.URL()+"/")
	sp.end(id)
	if !r.OK {
		_ = c.close()
		return nil, 0, fmt.Errorf("first request: status %d, err %v", r.Status, r.Err)
	}
	return c, time.Since(t0), nil
}

func (c *chain) close() error {
	err := c.sys.Close()
	c.transport.CloseIdleConnections()
	return err
}

// reqResult is one request's outcome, written by its own goroutine.
type reqResult struct {
	ms       float64 // from due time to completion
	late     float64 // generator lateness, ms
	rtUs     float64 // the client's own response time
	attempts int
	ok       bool
	err      string
}

func (w *liveChain) measure(b *bench, p *phase, until time.Time) {
	// Epochs split the phase evenly.
	left := time.Until(until)
	if left < time.Second {
		left = time.Second
	}
	epochLen := left / liveEpochs
	var late, rtUs []float64
	attempts, dropped, open, orphans := 0, uint64(0), 0, 0
	w.tiers = [3]tierTotals{}
	for e := 0; e < liveEpochs; e++ {
		op := b.nextOp()
		due := w.schedule(epochLen)
		settle()
		c, setup, err := startChain(64*len(due)+1024, b.spans, op)
		if err != nil {
			b.runErr("epoch %d set-up: %v", e, err)
			continue
		}
		p.setupS = append(p.setupS, setup.Seconds())
		if w.afterStart != nil {
			w.afterStart(c.sys)
		}
		p.refMs = append(p.refMs, hostRef())

		start := readCounters()
		results := w.load(c, due, b.spans, op)
		p.res.add(start, readCounters())
		for _, r := range results {
			p.attempted++
			p.opMs = append(p.opMs, r.ms)
			late = append(late, r.late)
			attempts += r.attempts
			if !r.ok {
				p.fail(fmt.Errorf("request: %s", r.err))
				continue
			}
			rtUs = append(rtUs, r.rtUs)
		}

		id := b.spans.begin("live.report", op, -1)
		rep := c.col.Report()
		b.spans.end(id)
		dropped += rep.DroppedEvents
		open += rep.Open
		orphans += rep.Orphans
		if rep.Open != 0 || rep.Orphans != 0 {
			b.runErr("epoch %d: live report has %d open traces and %d orphan spans", e, rep.Open, rep.Orphans)
		}
		if err := w.readCounters(c); err != nil {
			b.runErr("epoch %d counters: %v", e, err)
		}
		if err := c.close(); err != nil {
			b.runErr("epoch %d close: %v", e, err)
		}
		for k := 0; k < liveExtraSetups; k++ {
			settle()
			c, setup, err := startChain(64*len(due)+1024, nil, -1)
			if err != nil {
				b.runErr("extra set-up: %v", err)
				continue
			}
			p.setupS = append(p.setupS, setup.Seconds())
			if err := c.close(); err != nil {
				b.runErr("extra set-up close: %v", err)
			}
		}
	}
	if lp := quantile(late, 0.99); lp > ms(lateLimit) {
		b.runErr("generator fell behind its schedule: lateness p99 %.1f ms > %v", lp, lateLimit)
	}
	p.layer["loadgen.late_ms_p99"] = quantile(late, 0.99)
	n := float64(p.attempted)
	p.layer["live.attempts_per_op"] = float64(attempts) / n
	p.layer["live.events_dropped"] = float64(dropped)
	p.layer["live.open"] = float64(open)
	p.layer["live.orphans"] = float64(orphans)
	hop := mean(rtUs)
	for i, tier := range victimd.TierNames() {
		t := w.tiers[i]
		q, s := 0.0, 0.0
		if t.served > 0 {
			q = float64(t.queueNs) / float64(t.served) / 1e3
			s = float64(t.serviceNs) / float64(t.served) / 1e3
		}
		p.layer["victimd."+tier+".queue_us_mean"] = q
		p.layer["victimd."+tier+".service_us_mean"] = s
		p.layer["victimd."+tier+".rejected"] = float64(t.rejected)
		hop -= q + s
	}
	p.layer["victimd.hop_us"] = hop
}

// schedule draws the next epoch's Poisson due times from the run's
// generator and folds them into the schedule fingerprint.
func (w *liveChain) schedule(length time.Duration) []time.Duration {
	var due []time.Duration
	var buf [8]byte
	for t := time.Duration(0); ; {
		t += time.Duration(w.rng.ExpFloat64() / liveRate * float64(time.Second))
		if t >= length {
			return due
		}
		due = append(due, t)
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		w.sched.Write(buf[:])
	}
}

// load sends every request at its due time and waits for all of them.
func (w *liveChain) load(c *chain, due []time.Duration, sp *spans, op int) []reqResult {
	url := c.sys.Web.URL() + "/"
	results := make([]reqResult, len(due))
	sem := make(chan struct{}, liveMaxInFlight)
	var wg sync.WaitGroup
	root := sp.begin("live.load", op, -1)
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		sem <- struct{}{}
		late := time.Since(at)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			id := sp.begin("live.get", op, root)
			r := c.client.Get(context.Background(), url)
			sp.end(id)
			res := reqResult{ms: ms(time.Since(at)), late: ms(late), rtUs: float64(r.RT) / 1e3, attempts: r.Attempts, ok: r.OK && r.Status == http.StatusOK}
			if !res.ok {
				res.err = fmt.Sprintf("status %d after %d attempts (err %v)", r.Status, r.Attempts, r.Err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	sp.end(root)
	return results
}

// readCounters adds each tier's /debug/counters totals and its rejected
// count to the run totals.
func (w *liveChain) readCounters(c *chain) error {
	hc := &http.Client{Transport: c.transport, Timeout: 5 * time.Second}
	for i, t := range []*victimd.Tier{c.sys.Web, c.sys.App, c.sys.DB} {
		resp, err := hc.Get(t.URL() + "/debug/counters")
		if err != nil {
			return err
		}
		vals := map[string]int64{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), " ")
			if n, err := strconv.ParseInt(v, 10, 64); ok && err == nil {
				vals[k] = n
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return err
		}
		w.tiers[i].served += vals["victimd.served"]
		w.tiers[i].queueNs += vals["victimd.queue_wait_ns_total"]
		w.tiers[i].serviceNs += vals["victimd.service_ns_total"]
		w.tiers[i].rejected += t.Rejected()
	}
	return nil
}
