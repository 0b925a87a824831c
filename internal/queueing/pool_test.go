package queueing

import (
	"slices"
	"testing"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// closedLoopRun is what one closed-loop run measured.
type closedLoopRun struct {
	drops, completed, retrans uint64
	inFlight                  int
	tierRT                    [3][]time.Duration
}

// runClosedLoop runs 300 closed-loop clients (exponential 1 s think time,
// each request carrying its client as user data)
// through a 3-tier RPC network on a for 9.2 simulated seconds. Tier 2
// stalls for 300 ms every 2 s, so the front tier drops and the clients
// retransmit; the run stops in the last stall, with requests and retries
// still in flight.
func runClosedLoop(t *testing.T, a *stats.Arena) closedLoopRun {
	t.Helper()
	e := a.Engine(17)
	n, err := New(e, Config{
		Arena: a,
		Mode:  ModeNTierRPC,
		Tiers: []TierConfig{
			{Name: "apache", QueueLimit: 20, Servers: 2, Service: sim.NewExponential(400 * time.Microsecond)},
			{Name: "tomcat", QueueLimit: 10, Servers: 2, Service: sim.NewExponential(800 * time.Microsecond)},
			{Name: "mysql", QueueLimit: 4, Servers: 1, Service: sim.NewExponential(2 * time.Millisecond)},
		},
		Classes:    []Class{{Name: "full", Depth: 2}},
		Retransmit: DefaultRetransmit(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	think := sim.NewExponential(time.Second)
	var c *Client
	c = NewClient(n, func(req *Request) {
		user := req.UserData
		e.Schedule(think.Sample(e.Rand()), func() { c.Submit(0, user) })
	})
	for i := 0; i < 300; i++ {
		user := &i
		e.Schedule(think.Sample(e.Rand()), func() { c.Submit(0, user) })
	}
	for i := 0; i < 5; i++ {
		start := time.Duration(i)*2*time.Second + time.Second
		e.Schedule(start, func() { _ = n.SetCapacityMultiplier(2, 0.05) })
		e.Schedule(start+300*time.Millisecond, func() { _ = n.SetCapacityMultiplier(2, 1) })
	}
	e.Run(9200 * time.Millisecond)
	r := closedLoopRun{drops: n.Drops(), completed: n.Completed(), retrans: c.Retransmissions(), inFlight: n.InFlight()}
	for i := range r.tierRT {
		rt, err := n.TierRT(i)
		if err != nil {
			t.Fatal(err)
		}
		r.tierRT[i] = rt.Values()
	}
	return r
}

// TestArenaKeepsNetworkPools pins the network pool an arena keeps: after
// Reset a run on the same arena measures what a run on a fresh arena
// does, draws every request and retry record from the storage the first
// run allocated, and the reset pool holds no callback, client or user
// data.
func TestArenaKeepsNetworkPools(t *testing.T) {
	a := stats.NewArena()
	first := runClosedLoop(t, a)
	if first.drops == 0 || first.retrans == 0 || first.inFlight == 0 {
		t.Fatalf("drops %d, retransmissions %d, in flight at the horizon %d: want all positive",
			first.drops, first.retrans, first.inFlight)
	}
	p := poolFor(a, 3)
	reqBlocks, retryBlocks := len(p.reqs.blocks), len(p.retries.blocks)
	if reqBlocks == 0 || retryBlocks == 0 {
		t.Fatalf("the run allocated %d request and %d retry blocks from the arena's pool, want both positive", reqBlocks, retryBlocks)
	}
	if len(p.reqs.free) == p.reqs.n || len(p.retries.free) == p.retries.n {
		t.Fatal("no request or no retry record is checked out at the horizon: Reset has no leftovers to take back")
	}

	a.Reset()
	if got := len(p.reqs.free); got != p.reqs.n {
		t.Errorf("%d of %d requests free after Reset", got, p.reqs.n)
	}
	if got := len(p.retries.free); got != p.retries.n {
		t.Errorf("%d of %d retry records free after Reset", got, p.retries.n)
	}
	for _, b := range p.reqs.blocks {
		for i := range b {
			if r := &b[i]; r.onComplete != nil || r.client != nil || r.UserData != nil {
				t.Fatalf("a pooled request still holds onComplete, client or UserData after Reset")
			}
		}
	}
	for _, b := range p.retries.blocks {
		for i := range b {
			if b[i].data != nil {
				t.Fatalf("a pooled retry record still holds data after Reset")
			}
		}
	}
	for _, b := range p.runs.blocks {
		for i := range b {
			if b[i].req != nil {
				t.Fatalf("a pooled service run still holds a request after Reset")
			}
		}
	}
	for _, buf := range p.rings {
		if slices.ContainsFunc(buf, func(r *Request) bool { return r != nil }) {
			t.Fatalf("a pooled ring buffer still holds a request after Reset")
		}
	}

	again := runClosedLoop(t, a)
	fresh := runClosedLoop(t, stats.NewArena())
	if again.drops != fresh.drops || again.completed != fresh.completed || again.retrans != fresh.retrans || again.inFlight != fresh.inFlight {
		t.Errorf("run on a reset arena: drops %d, completed %d, retransmissions %d, in flight %d; on a fresh arena: %d, %d, %d, %d",
			again.drops, again.completed, again.retrans, again.inFlight, fresh.drops, fresh.completed, fresh.retrans, fresh.inFlight)
	}
	for i := range again.tierRT {
		if !slices.Equal(again.tierRT[i], fresh.tierRT[i]) {
			t.Errorf("tier %d response times differ between a reset arena and a fresh one", i)
		}
	}
	if got := len(p.reqs.blocks); got != reqBlocks {
		t.Errorf("the run on the reset arena grew the request blocks from %d to %d", reqBlocks, got)
	}
	if got := len(p.retries.blocks); got != retryBlocks {
		t.Errorf("the run on the reset arena grew the retry blocks from %d to %d", retryBlocks, got)
	}
}
