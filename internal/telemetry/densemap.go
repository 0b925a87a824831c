package telemetry

import "time"

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

// openSpan is a span start awaiting its end event.
type openSpan struct {
	t   time.Duration
	seq uint64
	ok  bool
}

// tierOpen holds one trace's open queue and service span at one tier.
type tierOpen struct{ queue, svc openSpan }

// tierKey packs a dense trace index and a tier into one denseMap key.
func tierKey(trace int32, tier int8) uint64 { return uint64(trace)<<8 | uint64(uint8(tier)) }
