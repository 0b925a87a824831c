package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfShareBuckets are the self_share.<bucket> metrics: the repo's layers
// plus the runtime and standard-library costs a layer change can move.
var selfShareBuckets = []string{
	"sim", "queueing", "workload", "attack", "memmodel", "cloud", "stats",
	"telemetry", "core", "figures", "sweep", "dsweep", "monitor", "victimd",
	"live", "runtime_gc", "net_http", "encoding", "syscall_io",
}

// stdBuckets maps standard-library packages to their bucket. Packages not
// listed (runtime, sort, fmt, bytes, sync, ...) are transparent: a sample
// whose leaf is in one of them is charged to the nearest caller that has
// a bucket, so an allocation or a memmove counts against the layer that
// asked for it.
var stdBuckets = map[string]string{
	"net/http": "net_http", "net/http/internal": "net_http", "net/textproto": "net_http", "net/url": "net_http",
	"encoding/json": "encoding", "encoding/gob": "encoding", "encoding/csv": "encoding",
	"encoding/binary": "encoding", "encoding/hex": "encoding", "strconv": "encoding",
	"compress/flate": "encoding", "compress/gzip": "encoding", "hash/crc32": "encoding",
	"syscall": "syscall_io", "internal/poll": "syscall_io", "os": "syscall_io", "io": "syscall_io",
	"io/fs": "syscall_io", "bufio": "syscall_io", "net": "syscall_io", "internal/syscall/unix": "syscall_io",
}

// gcFrame reports whether a runtime frame is garbage-collector work
// (background marking, assists, sweeping, scavenging).
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage extracts the import path from a symbol name such as
// "memca/internal/sim.(*Engine).Step".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf returns the bucket a package is charged to, "" for a
// transparent package, and "other" for code outside every bucket that
// still stops the walk (this benchmark, untracked repo packages).
func bucketOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "memca/internal/"); ok {
		if rest == "telemetry/live" {
			return "live"
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		for _, b := range selfShareBuckets {
			if b == rest {
				return b
			}
		}
		return "other"
	}
	if strings.HasPrefix(pkg, "memca") || pkg == "main" {
		return "other"
	}
	return stdBuckets[pkg]
}

// classify charges one sample, given its frames innermost first.
func classify(frames []string) string {
	for _, fn := range frames {
		if gcFrame(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range frames {
		if b := bucketOf(funcPackage(fn)); b != "" {
			return b
		}
	}
	return "other"
}

// selfShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time, in percent.
func selfShares(profile []byte) (map[string]float64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	total := int64(0)
	byBucket := map[string]int64{}
	for _, s := range samples {
		byBucket[classify(s.frames)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(selfShareBuckets))
	for _, b := range selfShareBuckets {
		if total > 0 {
			shares[b] = 100 * float64(byBucket[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, nil
}

type profSample struct {
	frames []string // innermost first, inlined frames expanded
	value  int64    // the last sample value (CPU nanoseconds)
}

// decodeProfile reads the subset of profile.proto a CPU profile needs:
// samples (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendRepeated(s.locs, w, v, b)
				case 2:
					s.values = appendRepeated(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && idx < int64(len(strs)) {
					ps.frames = append(ps.frames, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendRepeated adds a repeated varint field, packed (wire type 2) or not.
func appendRepeated(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
