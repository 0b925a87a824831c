package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counters is one snapshot of the process-wide resource counters an op is
// charged with: CPU from getrusage (user+sys over every thread, so GC
// workers and server goroutines on the second CPU count too) and the heap
// and GC totals from runtime/metrics.
type counters struct {
	cpu          time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64 // seconds
	gcCycles     uint64
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() counters {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return counters{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
		gcCycles:     samples[3].Value.Uint64(),
	}
}

// add accumulates the difference end-start into c.
func (c *counters) add(start, end counters) {
	c.cpu += end.cpu - start.cpu
	c.allocBytes += end.allocBytes - start.allocBytes
	c.allocObjects += end.allocObjects - start.allocObjects
	c.gcCPU += end.gcCPU - start.gcCPU
	c.gcCycles += end.gcCycles - start.gcCycles
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// refInput is the host probe's compute input: 2 MiB of a fixed xorshift
// stream, independent of the seed and of any repo code.
var refInput = func() []byte {
	b := make([]byte, 2<<20)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}()

// refTableSize is the host probe's pointer-chasing table: larger than a
// core's L2, so the walk waits on the shared cache and memory, where
// co-tenant contention on this kind of host shows first.
const refTableSize = 16 << 20

// refTable is one random cycle through its refTableSize/4 slots, built
// with Sattolo's shuffle. It is mapped outside the Go heap so that it does
// not change the program's GC pacing; it does add its size to peak_rss_mb
// on every workload.
var refTable = func() []uint32 {
	mem, err := syscall.Mmap(-1, 0, refTableSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mapping the host probe table: %v", err))
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refTableSize/4)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint64(0x2545f4914f6cdd1d)
	for i := len(t) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

// refSink keeps the probe's results live.
var refSink uint64

// hostRef times a fixed standard-library kernel: SHA-256 over refInput
// (compute) and a dependent walk of 1<<16 steps through refTable (cache
// and memory latency). It touches no repo code, so its drift between runs
// is the host's, not the program's.
func hostRef() float64 {
	start := time.Now()
	sum := sha256.Sum256(refInput)
	i := binary.LittleEndian.Uint32(sum[:4]) % uint32(len(refTable))
	for k := 0; k < 1<<16; k++ {
		i = refTable[i]
	}
	refSink += uint64(i)
	return ms(time.Since(start))
}
