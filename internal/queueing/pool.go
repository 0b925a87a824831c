package queueing

import (
	"math/bits"
	"time"

	"memca/internal/sim"
	"memca/internal/stats"
)

// pool is the recycled storage of the networks with one tier count on one
// stats arena: request blocks, retry records, service runs and tier ring
// buffers. The arena keeps it (stats.Arena.Keep), so a job on a warm
// arena allocates none of them, and every network built on the arena
// shares it, which is safe because an arena is single-goroutine.
//
// Checkouts reset what they hand out, so a recycled Request still carries
// its final field values until reused (Submit's return value stays
// readable until the next Submit). Recycle, which the arena's Reset
// calls, takes back every object the pool ever allocated, the finished
// run's in-flight leftovers included: a network must not be used after
// its arena's Reset.
type pool struct {
	// width is the tier count, the TierArrive/TierLeave capacity of
	// every request.
	width   int
	reqs    blockList[Request]
	retries blockList[retry]
	runs    blockList[serviceRun]
	// rings holds every ring buffer the pool allocated, and freeRings
	// the idle ones by size class (8 << class elements).
	rings     [][]*Request
	freeRings [][][]*Request
}

// poolKey keys a network pool in its arena by tier count.
type poolKey int

// poolFor returns the pool a's networks of width tiers share.
func poolFor(a *stats.Arena, width int) *pool {
	return a.Keep(poolKey(width), func() stats.Recycler { return &pool{width: width} }).(*pool)
}

// Recycle takes back every request, retry record, service run and ring
// buffer, dropping what they reference outside the pool (callbacks,
// clients, user data, engine events), so a pooled arena pins no model
// objects.
func (p *pool) Recycle() {
	p.reqs.recycle(func(r *Request) { r.onComplete, r.client, r.UserData = nil, nil, nil })
	p.retries.recycle(func(r *retry) { *r = retry{} })
	p.runs.recycle(func(r *serviceRun) { *r = serviceRun{} })
	for c := range p.freeRings {
		p.freeRings[c] = p.freeRings[c][:0]
	}
	for _, buf := range p.rings {
		p.putRing(buf)
	}
}

// getRequest checks a request out of the pool, reset for a class of the
// given depth.
func (p *pool) getRequest(depth int) *Request {
	if len(p.reqs.free) == 0 {
		// A new block's TierArrive/TierLeave slices are carved from one
		// backing slab, each with capacity for the deepest class so
		// Request.reset never reallocates.
		reqs := make([]Request, p.reqs.blockSize())
		backing := make([]time.Duration, len(reqs)*2*p.width)
		for i := range reqs {
			off := i * 2 * p.width
			reqs[i].TierArrive = backing[off : off : off+p.width]
			reqs[i].TierLeave = backing[off+p.width : off+p.width : off+2*p.width]
		}
		p.reqs.add(reqs)
	}
	req := p.reqs.pop()
	req.reset(depth)
	return req
}

// putRequest returns a finished request to the pool. Callbacks have
// already run; the object must not be referenced by the caller afterwards.
func (p *pool) putRequest(req *Request) {
	// Drop the callback references eagerly so the pool doesn't pin
	// caller state between submissions.
	req.onComplete = nil
	req.client = nil
	req.UserData = nil
	p.reqs.put(req)
}

// getRun checks a service run out of the pool.
func (p *pool) getRun() *serviceRun {
	if len(p.runs.free) == 0 {
		p.runs.add(make([]serviceRun, p.runs.blockSize()))
	}
	return p.runs.pop()
}

// putRun recycles a completed service run.
func (p *pool) putRun(run *serviceRun) {
	run.req = nil
	run.ev = sim.Event{}
	p.runs.put(run)
}

// getRetry checks a retry record out of the pool.
func (p *pool) getRetry() *retry {
	if len(p.retries.free) == 0 {
		p.retries.add(make([]retry, p.retries.blockSize()))
	}
	return p.retries.pop()
}

// putRetry returns a record to the pool.
func (p *pool) putRetry(r *retry) {
	r.data = nil
	p.retries.put(r)
}

// ring returns a nil-filled ring buffer of size elements, a power of two
// of at least 8.
func (p *pool) ring(size int) []*Request {
	c := bits.Len(uint(size)) - 4
	if c < len(p.freeRings) {
		if k := len(p.freeRings[c]); k > 0 {
			buf := p.freeRings[c][k-1]
			p.freeRings[c] = p.freeRings[c][:k-1]
			return buf
		}
	}
	buf := make([]*Request, size)
	p.rings = append(p.rings, buf)
	return buf
}

// putRing returns a ring buffer to the pool, clearing its slots.
func (p *pool) putRing(buf []*Request) {
	clear(buf)
	c := bits.Len(uint(len(buf))) - 4
	for len(p.freeRings) <= c {
		p.freeRings = append(p.freeRings, nil)
	}
	p.freeRings[c] = append(p.freeRings[c], buf)
}

// blockList hands out the elements of blocks it allocates and keeps, so
// that recycle can take back the elements still checked out.
type blockList[T any] struct {
	free   []*T
	blocks [][]T
	n      int // elements allocated
}

// blockSize is the length of the list's next block: as large as the
// list so far, from 8 up to 64 elements. A network that rarely drops
// holds few retry records, and a large client population's cold-start
// ramp costs one allocation per 64 objects.
func (l *blockList[T]) blockSize() int { return min(max(l.n, 8), 64) }

// add adds a new block's elements to the free list.
func (l *blockList[T]) add(b []T) {
	l.blocks = append(l.blocks, b)
	l.n += len(b)
	for i := range b {
		l.free = append(l.free, &b[i])
	}
}

// pop checks out a free element; the list must not be empty.
func (l *blockList[T]) pop() *T {
	k := len(l.free)
	x := l.free[k-1]
	l.free = l.free[:k-1]
	return x
}

// put returns an element to the free list.
func (l *blockList[T]) put(x *T) { l.free = append(l.free, x) }

// recycle makes every element free again, clearing each with reset.
func (l *blockList[T]) recycle(reset func(*T)) {
	l.free = l.free[:0]
	for _, b := range l.blocks {
		for i := range b {
			reset(&b[i])
			l.free = append(l.free, &b[i])
		}
	}
}
