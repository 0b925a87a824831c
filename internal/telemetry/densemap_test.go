package telemetry

import (
	"math/bits"
	"testing"

	"memca/internal/queueing"
)

// FuzzOpenTable drives an openTable with random sequences of span
// events through advance and holds it to a map reference in which an
// absent key reads as two closed spans. Each op is two bytes: the top two
// bits pick the event (tier request, service start, service end or drop)
// and the other fourteen the key. Each event must close the span the
// reference closes; after every op each key seen so far must read back as
// in the reference, the live count must equal the reference's size, and
// the slot table must stay within the next power of two of twice the
// peak live count (64 slots at least).
func FuzzOpenTable(f *testing.F) {
	var seq []byte
	for k := 0; k < 100; k++ { // 100 tier requests, then their service starts
		seq = append(seq, byte(k>>8), byte(k))
	}
	for k := 0; k < 100; k++ {
		seq = append(seq, 0x40|byte(k>>8), byte(k))
	}
	for k := 99; k >= 0; k -= 3 { // end every third service, newest first
		seq = append(seq, 0x80|byte(k>>8), byte(k))
	}
	f.Add(seq)
	f.Add([]byte{0x00, 0x01, 0xc0, 0x01, 0x00, 0x01, 0x40, 0x01, 0x80, 0x01, 0x80, 0x01})
	f.Add([]byte{})
	kinds := [...]queueing.SpanKind{queueing.SpanTierRequest, queueing.SpanServiceStart, queueing.SpanServiceEnd, queueing.SpanDrop}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab openTable
		ref := map[uint64]tierOpen{}
		var seen []uint64
		peak := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, k := data[i]>>6, uint16(data[i]&0x3f)<<8|uint16(data[i+1])
			key := tierKey(int32(k>>2), int8(k&3))
			if _, ok := ref[key]; !ok {
				seen = append(seen, key)
			}
			at := openSpan(i/2 + 1)
			o, want := ref[key], openSpan(0)
			switch op {
			case 0:
				o.queue = at
			case 1:
				want, o.queue, o.svc = o.queue, 0, at
			case 2:
				want, o.svc = o.svc, 0
			case 3:
				o.queue = 0
			}
			if o.queue != 0 || o.svc != 0 {
				ref[key] = o
			} else {
				delete(ref, key)
			}
			if got := tab.advance(key, kinds[op], at); got != want {
				t.Fatalf("op %d: %v at %#x closed %d, want %d", i/2, kinds[op], key, got, want)
			}

			peak = max(peak, len(ref))
			if tab.live != len(ref) {
				t.Fatalf("op %d: live %d, want %d", i/2, tab.live, len(ref))
			}
			for _, k := range seen {
				if got, want := tab.get(k), ref[k]; got != want {
					t.Fatalf("op %d: get(%#x) = %+v, want %+v", i/2, k, got, want)
				}
			}
			limit := 0
			if peak > 0 {
				limit = max(64, 1<<bits.Len(uint(2*peak-1)))
			}
			if len(tab.slots) > limit {
				t.Fatalf("op %d: %d slots for a peak of %d live entries, want at most %d", i/2, len(tab.slots), peak, limit)
			}
		}
	})
}
