package queueing

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// TestRandomTopologyConservation drives randomly shaped networks with
// random attack bursts and verifies the global invariants: every tier
// drains to zero, and every request is accounted for exactly once
// (completed, retried, or failed).
func TestRandomTopologyConservation(t *testing.T) {
	f := func(seed int64, tierRaw, qRaw [4]uint8, rateRaw uint16, dRaw, lRaw uint8) bool {
		numTiers := int(tierRaw[0]%4) + 1
		tiers := make([]TierConfig, 0, numTiers)
		prevQ := 256
		for i := 0; i < numTiers; i++ {
			servers := int(tierRaw[i]%3) + 1
			q := int(qRaw[i]%100) + servers + 1
			if q >= prevQ {
				q = prevQ - 1 // descending limits keep condition 1
			}
			if q < servers {
				q = servers
			}
			prevQ = q
			mean := time.Duration(int(qRaw[i])%2000+200) * time.Microsecond
			tiers = append(tiers, TierConfig{
				Name:       string(rune('a' + i)),
				QueueLimit: q,
				Servers:    servers,
				Service:    sim.NewExponential(mean),
			})
		}
		classes := []Class{{Name: "deep", Depth: numTiers - 1}}

		e := sim.NewEngine(seed)
		n, err := New(e, Config{Arena: stats.NewArena(), Mode: ModeNTierRPC, Tiers: tiers, Classes: classes, Retransmit: DefaultRetransmit()})
		if err != nil {
			return false
		}
		rate := float64(rateRaw%400) + 50
		src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: rate})
		if err != nil {
			return false
		}
		src.Start()

		// One random burst against the back tier.
		d := float64(dRaw%50) / 100 // 0..0.49
		l := time.Duration(int(lRaw)%800+50) * time.Millisecond
		e.Schedule(time.Second, func() { _ = n.SetCapacityMultiplier(numTiers-1, d) })
		e.Schedule(time.Second+l, func() { _ = n.SetCapacityMultiplier(numTiers-1, 1) })

		e.Run(4 * time.Second)
		src.Stop()
		if err := e.RunAll(10_000_000); err != nil {
			return false
		}

		for i := 0; i < n.NumTiers(); i++ {
			st, err := n.TierState(i)
			if err != nil || st.InUse != 0 || st.Backlog != 0 || st.BusyStations != 0 {
				return false
			}
		}
		if n.InFlight() != 0 {
			return false
		}
		return src.Sent() == n.Completed()+src.Retransmissions()+src.Failures()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRandomTopologyTierRTOrdering verifies the per-request latency
// ordering invariant (upstream >= downstream) under random shapes.
func TestRandomTopologyTierRTOrdering(t *testing.T) {
	f := func(seed int64, meanRaw [3]uint8) bool {
		e := sim.NewEngine(seed)
		tiers := make([]TierConfig, 3)
		for i := range tiers {
			tiers[i] = TierConfig{
				Name:       string(rune('a' + i)),
				QueueLimit: 60 - 20*i,
				Servers:    2,
				Service:    sim.NewExponential(time.Duration(int(meanRaw[i])%1500+100) * time.Microsecond),
			}
		}
		n, err := New(e, Config{
			Arena:   stats.NewArena(),
			Mode:    ModeNTierRPC,
			Tiers:   tiers,
			Classes: []Class{{Name: "c", Depth: 2}},
		})
		if err != nil {
			return false
		}
		ok := true
		src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: 150})
		if err != nil {
			return false
		}
		src.Start()
		e.Schedule(500*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 0.1) })
		e.Schedule(800*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
		e.Run(2 * time.Second)
		src.Stop()
		if err := e.RunAll(10_000_000); err != nil {
			return false
		}
		// Ordering is checked via the tier samples' maxima: the front
		// tier's worst case dominates the back tier's.
		for i := 1; i < 3; i++ {
			up, err1 := n.TierRT(i - 1)
			down, err2 := n.TierRT(i)
			if err1 != nil || err2 != nil {
				return false
			}
			if down.Len() > 0 && up.Max() < down.Max() {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// clientLog is an Observer that checks the client-side lifecycle of every
// trace as it happens: a retransmission is scheduled at its drop for
// exactly RTO(attempt) later, the retransmitted attempt (or, after the
// client stopped, its abandonment) comes due exactly then, and a trace
// closes once and is silent afterwards.
type clientLog struct {
	e      *sim.Engine
	policy RetransmitPolicy

	lastDrop map[uint64]time.Duration
	fireAt   map[uint64]time.Duration
	closed   map[uint64]int

	firsts, submits, completes, abandons, retransmits uint64
	lapsed                                            uint64
	err                                               error
}

func newClientLog(e *sim.Engine, policy RetransmitPolicy) *clientLog {
	return &clientLog{
		e: e, policy: policy,
		lastDrop: map[uint64]time.Duration{},
		fireAt:   map[uint64]time.Duration{},
		closed:   map[uint64]int{},
	}
}

func (l *clientLog) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *clientLog) Observe(req *Request, kind SpanKind, tier int) {
	now, id := l.e.Now(), req.TraceID
	if l.closed[id] > 0 {
		l.fail("trace %d: %v at %v after it closed", id, kind, now)
	}
	switch kind {
	case SpanSubmit:
		l.submits++
		if req.Attempt == 0 {
			l.firsts++
			return
		}
		if at, ok := l.fireAt[id]; !ok || at != now {
			l.fail("trace %d: attempt %d sent at %v, retransmission was due at %v (scheduled %v)", id, req.Attempt, now, at, ok)
		}
		delete(l.fireAt, id)
	case SpanDrop:
		l.lastDrop[id] = now
	case SpanRetransmit:
		l.retransmits++
		rto := req.Submit - now
		if rto != l.policy.RTO(req.Attempt) || rto < l.policy.RTOMin {
			l.fail("trace %d: attempt %d scheduled %v after its drop, RTO is %v (min %v)", id, req.Attempt, rto, l.policy.RTO(req.Attempt), l.policy.RTOMin)
		}
		if drop, ok := l.lastDrop[id]; !ok || drop != now {
			l.fail("trace %d: retransmission scheduled at %v, not at its drop (%v)", id, now, drop)
		}
		l.fireAt[id] = req.Submit
	case SpanComplete:
		l.completes++
		l.closed[id]++
	case SpanAbandon:
		l.abandons++
		l.closed[id]++
		if at, ok := l.fireAt[id]; ok {
			// The client stopped while this retransmission was pending.
			if at != now {
				l.fail("trace %d: abandoned at %v, its retransmission was due at %v", id, now, at)
			}
			l.lapsed++
			delete(l.fireAt, id)
		}
	}
}

// TestClientRetransmissionProperty drives a Poisson source through a
// bursty three-tier network under random valid retransmission policies,
// stops the source while retransmissions are pending, and checks the one
// retransmission path end to end: every retransmission fires exactly
// RTO(attempt) after its drop and never before RTOMin, every trace closes
// exactly once, and requests are conserved — each attempt sent completes
// or is dropped into a retransmission or a failure, and each attempt
// scheduled (first attempts plus retransmissions) is sent, fails, or
// lapses when its retransmission comes due after the stop.
func TestClientRetransmissionProperty(t *testing.T) {
	// Totals over every case, so the test fails if a path never ran.
	var retransmitted, failed, lapsed uint64
	f := func(seed int64, rtoRaw uint16, backoffRaw, retriesRaw, rateRaw uint8) bool {
		policy := RetransmitPolicy{
			RTOMin:     time.Duration(int(rtoRaw)%1000+1) * time.Millisecond,
			Backoff:    1 + float64(backoffRaw%21)/10,
			MaxRetries: int(retriesRaw % 5),
		}
		e := sim.NewEngine(seed)
		log := newClientLog(e, policy)
		n := threeTierObserved(t, e, 20, 10, 4, policy, log)
		src, err := NewPoissonSource(n, SourceConfig{Class: 0, Rate: float64(rateRaw%200) + 200})
		if err != nil {
			t.Fatal(err)
		}
		src.Start()
		for i := 0; i < 3; i++ {
			start := time.Duration(i)*time.Second + 200*time.Millisecond
			e.Schedule(start, func() { _ = n.SetCapacityMultiplier(2, 0.02) })
			e.Schedule(start+400*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
		}
		e.Run(3 * time.Second)
		src.Stop()
		if err := e.RunAll(10_000_000); err != nil {
			t.Fatal(err)
		}
		c := src.client
		retransmitted += c.Retransmissions()
		failed += c.Failures()
		lapsed += log.lapsed
		switch {
		case log.err != nil:
			t.Log(log.err)
		case len(log.fireAt) != 0 || n.InFlight() != 0:
			t.Logf("drained with %d retransmissions pending and %d requests in flight", len(log.fireAt), n.InFlight())
		case uint64(len(log.closed)) != log.firsts:
			t.Logf("%d traces opened, %d closed", log.firsts, len(log.closed))
		case log.submits != c.Sent() || log.retransmits != c.Retransmissions() || log.abandons != c.Failures()+log.lapsed:
			t.Logf("observer saw %d submits, %d retransmissions, %d abandons; client counted %d, %d, %d failures + %d lapsed",
				log.submits, log.retransmits, log.abandons, c.Sent(), c.Retransmissions(), c.Failures(), log.lapsed)
		case c.Sent() != log.completes+c.Retransmissions()+c.Failures():
			t.Logf("sent %d != completed %d + retransmissions %d + failures %d", c.Sent(), log.completes, c.Retransmissions(), c.Failures())
		case log.firsts+c.Retransmissions() != log.completes+c.Retransmissions()+c.Failures()+log.lapsed:
			t.Logf("scheduled %d+%d != completed %d + retransmissions %d + failures %d + lapsed %d",
				log.firsts, c.Retransmissions(), log.completes, c.Retransmissions(), c.Failures(), log.lapsed)
		default:
			return true
		}
		t.Logf("policy %+v", policy)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	if retransmitted == 0 || failed == 0 || lapsed == 0 {
		t.Errorf("over all cases: %d retransmissions, %d failures, %d lapsed; every path must run", retransmitted, failed, lapsed)
	}
}
