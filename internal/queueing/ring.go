package queueing

// reqRing is a FIFO queue of requests over a reusable circular buffer.
// The capacity is always a power of two so the index math is a mask; the
// buffer grows on demand through the network's pool, which keeps every
// buffer for later networks, keeping steady-state push/pop
// allocation-free.
type reqRing struct {
	buf  []*Request
	head int
	n    int
}

// len returns the number of queued requests.
func (q *reqRing) len() int { return q.n }

// push appends r at the tail, growing the buffer from p.
func (q *reqRing) push(p *pool, r *Request) {
	if q.n == len(q.buf) {
		q.grow(p)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// pop removes and returns the head. It panics on an empty ring (callers
// always check len first).
func (q *reqRing) pop() *Request {
	if q.n == 0 {
		panic("queueing: pop from empty ring")
	}
	r := q.buf[q.head]
	q.buf[q.head] = nil // do not retain the request past its dequeue
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// grow doubles the buffer, unwrapping the ring so head restarts at 0,
// and gives the old buffer back to p.
func (q *reqRing) grow(p *pool) {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	next := p.ring(size)
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	if q.buf != nil {
		p.putRing(q.buf)
	}
	q.buf = next
	q.head = 0
}
