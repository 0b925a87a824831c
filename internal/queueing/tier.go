package queueing

import (
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// serviceRun tracks one request being served by a station, with the fluid
// remaining-work bookkeeping that lets the network retarget completion
// times when the tier's capacity multiplier changes mid-service.
//
// Runs are pooled (see pool) and linked into their tier's in-service
// list (an intrusive doubly-linked list in admission order — deterministic,
// unlike map iteration, and allocation-free, unlike map inserts).
type serviceRun struct {
	req *Request
	// remaining is the work left, in seconds of service at full rate.
	remaining float64
	// lastUpdate is the last time remaining was reconciled.
	lastUpdate time.Duration
	ev         sim.Event

	prev, next *serviceRun
}

// tier is one stage of the network. All mutation happens on the simulator
// goroutine.
type tier struct {
	cfg TierConfig
	idx int
	net *Network

	// mult is the current capacity multiplier: work drains at mult*scale
	// work-seconds per second. 1 = full capacity; the MemCA burst sets
	// the victim tier below 1 (C_ON = D * C_OFF).
	mult float64
	// scale is the elastic-scaling factor (instances relative to the
	// initial fleet); it composes multiplicatively with mult so an
	// attack and a scale-out can coexist.
	scale float64

	inUse          int // admitted slots (held until response in RPC mode)
	waitingService reqRing
	pendingAdmit   reqRing
	// runsHead/runsTail anchor the in-service list in admission order.
	runsHead, runsTail *serviceRun
	busyStations       int

	occupancy *stats.LevelIntegrator // slots in use over time
	busy      *stats.LevelIntegrator // busy stations over time
	rt        *stats.Sample          // per-request tier response times

	completions uint64
}

func newTier(cfg TierConfig, idx int, net *Network) *tier {
	a := net.cfg.Arena
	return &tier{
		cfg:       cfg,
		idx:       idx,
		net:       net,
		mult:      1,
		scale:     1,
		occupancy: a.LevelIntegrator(),
		busy:      a.LevelIntegrator(),
		rt:        a.Sample(1024),
	}
}

// Act dispatches a completion event for one in-service run: tiers are the
// sim.Actor for their own service completions, so the per-service event
// carries no closure.
//
//memca:hotpath
func (t *tier) Act(arg any) { t.serviceDone(arg.(*serviceRun)) }

func (t *tier) now() time.Duration { return t.net.engine.Now() }

func (t *tier) full() bool {
	return t.cfg.QueueLimit != Infinite && t.inUse >= t.cfg.QueueLimit
}

// requestSlot is the entry point into the tier. TierArrive is stamped at
// admission (see admit): a request blocked in front of a full tier is
// still *inside* the upstream tier — holding its thread while waiting for
// a downstream connection — so the wait counts toward upstream latency,
// which is exactly how the paper's per-tier response times amplify from
// the back tier to the front.
func (t *tier) requestSlot(req *Request) {
	t.net.observe(req, SpanTierRequest, t.idx)
	if !t.full() {
		t.admit(req)
		return
	}
	if t.idx == 0 || t.net.cfg.Mode == ModeTandem {
		// The front tier sheds load: the connection is refused and the
		// client's TCP stack will retransmit after its RTO. Independent
		// tiers have no upstream to hold the request either; a finite
		// interior queue in tandem mode is a loss queue.
		req.Dropped = true
		t.net.drops++
		t.net.observe(req, SpanDrop, t.idx)
		t.net.notifyDrop(req)
		return
	}
	// RPC mode: the request blocks here, still holding its slots in
	// every upstream tier — this is the cross-tier back-pressure that
	// propagates queue overflow toward the front.
	t.net.observe(req, SpanTierBlocked, t.idx)
	t.pendingAdmit.push(t.net.pool, req)
}

func (t *tier) admit(req *Request) {
	req.TierArrive[t.idx] = t.now()
	t.net.observe(req, SpanTierAdmit, t.idx)
	t.inUse++
	t.occupancy.Set(t.now(), t.inUse)
	if t.busyStations < t.cfg.Servers {
		t.startService(req)
		return
	}
	t.net.observe(req, SpanStationWait, t.idx)
	t.waitingService.push(t.net.pool, req)
}

func (t *tier) startService(req *Request) {
	t.net.observe(req, SpanServiceStart, t.idx)
	t.busyStations++
	t.busy.Set(t.now(), t.busyStations)
	base := t.cfg.Service.Sample(t.net.engine.Rand())
	scale := 1.0
	class := t.net.cfg.Classes[req.Class]
	if class.DemandScale != nil {
		scale = class.DemandScale[t.idx]
	}
	run := t.net.pool.getRun()
	run.req = req
	run.remaining = base.Seconds() * scale
	run.lastUpdate = t.now()
	t.linkRun(run)
	t.scheduleCompletion(run)
}

// linkRun appends run to the in-service list.
func (t *tier) linkRun(run *serviceRun) {
	run.prev = t.runsTail
	run.next = nil
	if t.runsTail != nil {
		t.runsTail.next = run
	} else {
		t.runsHead = run
	}
	t.runsTail = run
}

// unlinkRun removes run from the in-service list.
func (t *tier) unlinkRun(run *serviceRun) {
	if run.prev != nil {
		run.prev.next = run.next
	} else {
		t.runsHead = run.next
	}
	if run.next != nil {
		run.next.prev = run.prev
	} else {
		t.runsTail = run.prev
	}
	run.prev, run.next = nil, nil
}

// rate returns the tier's current drain rate in work-seconds per second.
func (t *tier) rate() float64 { return t.mult * t.scale }

// scheduleCompletion (re)schedules the completion event for run based on
// its remaining work and the tier's current rate.
func (t *tier) scheduleCompletion(run *serviceRun) {
	run.ev.Cancel()
	run.ev = sim.Event{}
	r := t.rate()
	if r <= 0 {
		return // fully stalled; rescheduled when capacity returns
	}
	delay := time.Duration(run.remaining / r * float64(time.Second))
	run.ev = t.net.engine.ScheduleCall(delay, t, run)
}

// reconcileTo books the work done at the old rate into every in-flight
// service, installs the new capacity factors, and reschedules completions
// at the new rate (fluid model). The list is walked in admission order, so
// the rescheduled events' tie-break sequence is deterministic. Taking both
// factors as plain values (rather than an apply closure) keeps the
// per-burst rate-change path allocation-free.
func (t *tier) reconcileTo(mult, scale float64) {
	now := t.now()
	oldRate := t.rate()
	for run := t.runsHead; run != nil; run = run.next {
		elapsed := (now - run.lastUpdate).Seconds()
		run.remaining -= elapsed * oldRate
		if run.remaining < 0 {
			run.remaining = 0
		}
		run.lastUpdate = now
		t.net.observe(run.req, SpanServicePreempt, t.idx)
	}
	t.mult = mult
	t.scale = scale
	for run := t.runsHead; run != nil; run = run.next {
		t.scheduleCompletion(run)
	}
}

// setMultiplier changes the tier's capacity multiplier, preserving
// in-flight work. It runs on every attack-burst edge.
//
//memca:hotpath
func (t *tier) setMultiplier(m float64) {
	if m < 0 {
		m = 0
	}
	if stats.ApproxEqual(m, t.mult) {
		return
	}
	t.reconcileTo(m, t.scale)
}

// setScale changes the tier's elastic-scaling factor, preserving in-flight
// work.
//
//memca:hotpath
func (t *tier) setScale(s float64) {
	if s < 0 {
		s = 0
	}
	if stats.ApproxEqual(s, t.scale) {
		return
	}
	t.reconcileTo(t.mult, s)
}

func (t *tier) serviceDone(run *serviceRun) {
	req := run.req
	t.net.observe(req, SpanServiceEnd, t.idx)
	t.unlinkRun(run)
	t.net.pool.putRun(run)
	t.busyStations--
	t.busy.Set(t.now(), t.busyStations)
	if t.waitingService.len() > 0 {
		t.startService(t.waitingService.pop())
	}

	if t.net.cfg.Mode == ModeTandem {
		// Independent tiers: leave this one entirely, then move on.
		req.TierLeave[t.idx] = t.now()
		t.net.observe(req, SpanTierRespond, t.idx)
		t.rt.Add(req.TierRT(t.idx))
		t.completions++
		t.releaseSlot()
		t.net.advance(req, t.idx)
		return
	}
	// RPC mode: keep the slot; descend or respond.
	t.net.advance(req, t.idx)
}

// respond is called in RPC mode when the request's deepest tier finished:
// the response propagates back through this tier instantly, releasing its
// slot.
func (t *tier) respond(req *Request) {
	req.TierLeave[t.idx] = t.now()
	t.net.observe(req, SpanTierRespond, t.idx)
	t.rt.Add(req.TierRT(t.idx))
	t.completions++
	t.releaseSlot()
}

// releaseSlot frees one concurrency slot and, in RPC mode, admits the head
// of the blocked backlog if any.
func (t *tier) releaseSlot() {
	t.inUse--
	t.occupancy.Set(t.now(), t.inUse)
	if t.pendingAdmit.len() > 0 && !t.full() {
		next := t.pendingAdmit.pop()
		t.admit(next)
	}
}
