package stats

import (
	"slices"
	"time"
)

// signBit maps int64 durations onto uint64 so unsigned digit ordering
// matches signed value ordering.
const signBit = uint64(1) << 63

// radixMinLen is the length below which comparison sorting beats the
// fixed per-pass cost of counting digits.
const radixMinLen = 128

// sortDurations sorts v ascending. Large inputs use an LSD radix sort
// over 8-bit digits, ping-ponging between v and scratch (which must be at
// least len(v) long); passes whose digit is constant across v are
// skipped, so values spanning k significant bytes cost k linear passes.
// The result is byte-identical to a comparison sort: sorting int64 keys
// has exactly one output. Small inputs use comparison sorting.
func sortDurations(v, scratch []time.Duration) {
	if len(v) < radixMinLen {
		slices.Sort(v)
		return
	}
	// Which key bits vary decides which passes run.
	orAcc := uint64(0)
	andAcc := ^uint64(0)
	for _, d := range v {
		k := uint64(d) ^ signBit
		orAcc |= k
		andAcc &= k
	}
	varying := orAcc ^ andAcc
	if varying == 0 {
		return // all elements equal
	}
	src, dst := v, scratch[:len(v)]
	swapped := false
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, d := range src {
			counts[((uint64(d)^signBit)>>shift)&0xff]++
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, d := range src {
			b := ((uint64(d) ^ signBit) >> shift) & 0xff
			dst[counts[b]] = d
			counts[b]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(v, src)
	}
}
