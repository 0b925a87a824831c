package telemetry

import "memca/internal/queueing"

// denseMap maps uint64 keys to values stored densely in first-insertion
// order, which is the order the OTLP root spans are written in. It is
// open addressing with linear probing over a fixed hash: unlike a runtime
// map, whose per-map random seed decides when its tables split, its
// allocations depend only on the keys inserted, so the exporters'
// allocs/op stay an exact contract (BenchmarkSpanExport).
type denseMap[V any] struct {
	slots []int32 // 1 + the index of the slot's key; 0 marks an empty slot
	keys  []uint64
	vals  []V
}

// at returns key's dense index and value, appending a zero value when key
// is new (added). The pointer is valid until the next at call.
func (m *denseMap[V]) at(key uint64) (i int32, v *V, added bool) {
	if 2*len(m.keys) >= len(m.slots) {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	for h := mix64(key) & mask; ; h = (h + 1) & mask {
		s := m.slots[h]
		if s == 0 {
			var zero V
			i = int32(len(m.keys))
			m.keys = append(m.keys, key)
			m.vals = append(m.vals, zero)
			m.slots[h] = i + 1
			return i, &m.vals[i], true
		}
		if m.keys[s-1] == key {
			return s - 1, &m.vals[s-1], false
		}
	}
}

// grow doubles the slot table (keeping the load at most one half) and
// re-inserts every key.
func (m *denseMap[V]) grow() {
	m.slots = make([]int32, max(64, 2*len(m.slots)))
	mask := uint64(len(m.slots) - 1)
	for i, k := range m.keys {
		h := mix64(k) & mask
		for m.slots[h] != 0 {
			h = (h + 1) & mask
		}
		m.slots[h] = int32(i + 1)
	}
}

// mix64 is the splitmix64 finalizer: a fixed bijective hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// openSpan is a span start awaiting its end event: 1 + the index of the
// slot the exporter reserved for the span at its opening event, where
// the closing event writes the span's end. 0 marks no open span. The
// start itself is read back from the opening event.
type openSpan int32

// tierOpen holds one trace's open queue and service span at one tier.
type tierOpen struct{ queue, svc openSpan }

// tierKey packs a dense trace index and a tier into one openTable key.
func tierKey(trace int32, tier int8) uint64 { return uint64(trace)<<8 | uint64(uint8(tier)) }

// openTable maps tierKeys to the open spans of that (trace, tier) and
// holds only the live ones: put removes an entry once both its spans are
// closed, and get reads an absent key as two closed spans, which every
// reader treats the same. The table therefore stays the size of the
// in-flight set rather than of every (trace, tier) pair an export meets.
// Like denseMap it is open addressing with linear probing over mix64, so
// its allocations depend only on the keys; deletion shifts the following
// run back instead of leaving tombstones.
type openTable struct {
	slots []openSlot
	live  int
}

type openSlot struct {
	key  uint64 // 1 + the tierKey; 0 marks an empty slot
	open tierOpen
}

// get returns key's open spans, both closed when key is absent.
func (m *openTable) get(key uint64) tierOpen {
	if h, found := m.find(key); found {
		return m.slots[h].open
	}
	return tierOpen{}
}

// put stores key's open spans, removing key when both are closed.
func (m *openTable) put(key uint64, o tierOpen) {
	if o.queue == 0 && o.svc == 0 {
		m.remove(key)
		return
	}
	h, found := m.find(key)
	if !found {
		// Keep the load at most one half once key is added.
		if 2*(m.live+1) > len(m.slots) {
			m.grow()
			h, _ = m.find(key)
		}
		m.slots[h].key = key + 1
		m.live++
	}
	m.slots[h].open = o
}

// advance applies an event of kind at key's (trace, tier): a tier
// request opens the queue span as opened, a service start closes the
// queue span and opens the service span as opened, a service end closes
// the service span, and a drop discards the queue span. It returns the
// span the event closes: the queue span at a service start, the service
// span at a service end; 0 when it closes none, including when the
// span's start was lost.
func (m *openTable) advance(key uint64, kind queueing.SpanKind, opened openSpan) (closed openSpan) {
	o := m.get(key)
	switch kind {
	case queueing.SpanTierRequest:
		o.queue = opened
	case queueing.SpanServiceStart:
		closed, o.queue, o.svc = o.queue, 0, opened
	case queueing.SpanServiceEnd:
		closed, o.svc = o.svc, 0
	case queueing.SpanDrop:
		o.queue = 0
	}
	m.put(key, o)
	return closed
}

// find returns the slot holding key, or the empty slot ending its probe
// run (none while the table has no slots).
func (m *openTable) find(key uint64) (h uint64, found bool) {
	if len(m.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for h = mix64(key) & mask; ; h = (h + 1) & mask {
		switch m.slots[h].key {
		case key + 1:
			return h, true
		case 0:
			return h, false
		}
	}
}

// remove deletes key if present, shifting each later entry of the probe
// run back into the hole when the hole lies between that entry's home
// slot and its current slot, so no probe run is ever broken.
func (m *openTable) remove(key uint64) {
	hole, found := m.find(key)
	if !found {
		return
	}
	mask := uint64(len(m.slots) - 1)
	for j := (hole + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		home := mix64(m.slots[j].key-1) & mask
		if (j-home)&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = openSlot{}
	m.live--
}

// grow doubles the slot table (at least 64 slots) and re-inserts every
// live entry.
func (m *openTable) grow() {
	old := m.slots
	m.slots = make([]openSlot, max(64, 2*len(old)))
	mask := uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		h := mix64(s.key-1) & mask
		for m.slots[h].key != 0 {
			h = (h + 1) & mask
		}
		m.slots[h] = s
	}
}
