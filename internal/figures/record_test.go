package figures

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// codecLevel is a named int, like the enums records carry.
type codecLevel int16

// codecInner is a nested record struct.
type codecInner struct {
	Name  string
	Curve []time.Duration
	Ok    bool
}

// codecProbe covers every kind the record codec supports.
type codecProbe struct {
	Flag   bool
	Int    int
	Small  int8
	Mid    int16
	Word   int32
	Wide   int64
	Dur    time.Duration
	Level  codecLevel
	Count  uint64
	Ratio  float64
	Name   string
	Ints   []int64
	Floats []float64
	Pair   [2]float64
	Inner  codecInner
	Inners []codecInner
	Grid   [][]int
}

// probeFrom derives a codecProbe from fuzz inputs; the first 64 bytes of
// data feed the slices, so floats decoded from them include NaNs,
// infinities and -0. The caps keep the quadratic truncation check fast.
func probeFrom(flag bool, i int64, f float64, s string, data []byte) codecProbe {
	if len(data) > 64 {
		data = data[:64]
	}
	if len(s) > 64 {
		s = s[:64]
	}
	p := codecProbe{
		Flag: flag, Int: int(i), Small: int8(i), Mid: int16(i >> 8), Word: int32(i >> 16), Wide: i,
		Dur: time.Duration(-i), Level: codecLevel(i), Count: uint64(i) * 3, Ratio: f, Name: s,
		Pair:  [2]float64{f, -f},
		Inner: codecInner{Name: s + "-inner", Curve: []time.Duration{}, Ok: !flag},
	}
	for j, c := range data {
		p.Ints = append(p.Ints, int64(c)*i-int64(j))
		if j%3 == 0 {
			p.Inners = append(p.Inners, codecInner{Name: string(data[:j]), Curve: []time.Duration{time.Duration(c) * time.Millisecond}})
		}
	}
	for len(data) >= 8 {
		p.Floats = append(p.Floats, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	if len(data) > 0 {
		p.Grid = [][]int{nil, {int(data[0])}, make([]int, len(data))}
	}
	return p
}

// sameBits compares two decoded values of one type, floats by their
// bits, and a nil slice equal to an empty one (the codec decodes length
// 0 as nil, as gob did).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// FuzzRecordCodec checks the job record codec three ways: a value built
// from the inputs round-trips exactly; every truncation of its encoding
// is an error; and the raw input, decoded behind a valid fingerprint, is
// an error or a value — never a panic.
func FuzzRecordCodec(f *testing.F) {
	f.Add(false, int64(0), 0.0, "", []byte(nil))
	f.Add(true, int64(-1), math.Copysign(0, -1), "ec2", []byte("0123456789abcdef"))
	f.Add(true, int64(math.MaxInt64), math.NaN(), "private-cloud", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x7f, 1})
	f.Add(false, int64(math.MinInt64), math.Inf(-1), "x", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, flag bool, i int64, fl float64, s string, data []byte) {
		want := probeFrom(flag, i, fl, s, data)
		enc, err := appendRecord(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		var got codecProbe
		if err := decodeRecord(enc, &got); err != nil {
			t.Fatalf("decoding a valid record: %v", err)
		}
		if !sameBits(reflect.ValueOf(want), reflect.ValueOf(got)) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, want)
		}
		if got.Inner.Curve != nil {
			t.Fatalf("an empty slice decoded as %#v, want nil", got.Inner.Curve)
		}
		for n := 0; n < len(enc); n++ {
			var cut codecProbe
			if err := decodeRecord(enc[:n], &cut); err == nil {
				t.Fatalf("record truncated to %d of %d bytes decoded without error", n, len(enc))
			}
		}
		raw := append(enc[:8:8], data...)
		var arbitrary codecProbe
		_ = decodeRecord(raw, &arbitrary)
	})
}

// TestRecordCodecRejects pins what a record may not hold — each kind the
// codec refuses, an unexported field, a record from a different layout —
// and that every registered driver's record type has a codec, so a
// record that gains a map fails here rather than on its first job.
func TestRecordCodecRejects(t *testing.T) {
	type withMap struct{ M map[string]int }
	type withPointer struct{ P *int }
	type withInterface struct{ I any }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	type withFloat32 struct{ F float32 }
	type withUnexported struct {
		Name  string
		count int
	}
	type nestedMap struct{ Rows []struct{ M map[int]int } }
	type recursive struct{ Kids []recursive }
	for _, tc := range []struct {
		t    reflect.Type
		want string
	}{
		{reflect.TypeFor[withMap](), ".M: map[string]int is not a plain value"},
		{reflect.TypeFor[withPointer](), ".P: *int is not a plain value"},
		{reflect.TypeFor[withInterface](), ".I: interface {} is not a plain value"},
		{reflect.TypeFor[withChan](), ".C: chan int is not a plain value"},
		{reflect.TypeFor[withFunc](), ".F: func() is not a plain value"},
		{reflect.TypeFor[withFloat32](), ".F: float32 is not a plain value"},
		{reflect.TypeFor[withUnexported](), ".count: unexported field"},
		{reflect.TypeFor[nestedMap](), ".Rows[].M: map[int]int is not a plain value"},
		{reflect.TypeFor[recursive](), "recursive type"},
	} {
		if _, err := codecFor(tc.t); !errors.Is(err, errRecordType) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("codec for %v: got %v, want an errRecordType containing %q", tc.t, err, tc.want)
		}
	}
	if _, err := appendRecord(nil, withMap{}); err == nil {
		t.Errorf("appendRecord accepted a record with a map")
	}

	// Positional decoding must not read a record of another layout, even
	// one whose bytes would parse: a renamed field and a reordered pair.
	type written struct {
		A int
		B int
	}
	type renamed struct {
		A int
		C int
	}
	type reordered struct {
		B int
		A int
	}
	enc, err := appendRecord(nil, written{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	const layoutErr = "record from a build with a different layout"
	var r1 renamed
	if err := decodeRecord(enc, &r1); err == nil || !strings.Contains(err.Error(), layoutErr) {
		t.Errorf("decoding into a renamed layout: got %v, want %q", err, layoutErr)
	}
	var r2 reordered
	if err := decodeRecord(enc, &r2); err == nil || !strings.Contains(err.Error(), layoutErr) {
		t.Errorf("decoding into a reordered layout: got %v, want %q", err, layoutErr)
	}
	var same written
	if err := decodeRecord(append(enc, 0), &same); err == nil {
		t.Errorf("a record with a trailing byte decoded without error")
	}

	// A driver's record type is visible only through its finalizer, which
	// builds the codec before it reads the first (here empty) record.
	for _, name := range DistDrivers() {
		d, _ := LookupDist(name)
		r, err := d.New(Options{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, _, err = r.Finalize(make([][]byte, r.Jobs))
		if err == nil || errors.Is(err, errRecordType) {
			t.Errorf("%s: finalizing empty records: got %v, want a decoding error", name, err)
		}
	}
}
