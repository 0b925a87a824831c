package figures

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// Job records travel from a figure job to its finalizer — in memory for
// RunLocal, through shard artifacts on disk for a distributed run — as
// the bytes of one record codec per record type. A codec is compiled
// from the record's reflect.Type once per process and covers only the
// plain-value kinds records use: bool, signed ints (time.Duration and
// other named ints included), uint64, float64, string, and slices,
// arrays and structs of those. Building a codec rejects maps, pointers,
// interfaces, chans, funcs and unexported fields, so a record that could
// not encode to stable, self-contained bytes is an error on its first
// job; TestRecordCodecRejects builds every registered driver's record.
//
// An encoded record is an 8-byte little-endian fingerprint of the type's
// layout (field names and kinds, recursively) followed by the value:
// ints as zigzag varints, uint64s and lengths as uvarints, floats as 8
// little-endian IEEE bytes, bools as one 0/1 byte, struct fields in
// declaration order. The encoding is positional, so the fingerprint
// stands in for matching fields by name: a record written by a build
// whose record layout differs is refused, never read with shifted
// fields. Decoding bounds every length by the bytes left, rejects
// trailing bytes, and decodes a length-0 slice as nil.

// recordCodec encodes and decodes the values of one record type.
type recordCodec struct {
	fingerprint uint64
	enc         encodeFn
	dec         decodeFn
}

// encodeFn appends v's encoding to b.
type encodeFn func(b []byte, v reflect.Value) []byte

// decodeFn decodes the next value from d into v.
type decodeFn func(d *recordDecoder, v reflect.Value) error

// codecs holds every record codec this process has built, keyed by
// record type, with the error for a type that cannot have one.
var (
	codecsMu sync.Mutex
	codecs   = map[reflect.Type]*cachedCodec{}
)

type cachedCodec struct {
	c   *recordCodec
	err error
}

// codecFor returns t's record codec, building it on the first call for t.
func codecFor(t reflect.Type) (*recordCodec, error) {
	codecsMu.Lock()
	defer codecsMu.Unlock()
	e, ok := codecs[t]
	if !ok {
		c, err := buildRecordCodec(t)
		e = &cachedCodec{c: c, err: err}
		codecs[t] = e
	}
	return e.c, e.err
}

// appendRecord appends the encoding of one job record to b.
func appendRecord[R any](b []byte, rec R) ([]byte, error) {
	c, err := codecFor(reflect.TypeFor[R]())
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint64(b, c.fingerprint)
	return c.enc(b, reflect.ValueOf(&rec).Elem()), nil
}

// decodeRecord is appendRecord's inverse.
func decodeRecord[R any](data []byte, rec *R) error {
	c, err := codecFor(reflect.TypeFor[R]())
	if err != nil {
		return err
	}
	if len(data) < 8 {
		return fmt.Errorf("figures: job record of %d bytes is shorter than its layout fingerprint", len(data))
	}
	if fp := binary.LittleEndian.Uint64(data); fp != c.fingerprint {
		return fmt.Errorf("figures: job record from a build with a different layout (fingerprint %016x, this build's %016x)", fp, c.fingerprint)
	}
	d := recordDecoder{b: data[8:]}
	if err := c.dec(&d, reflect.ValueOf(rec).Elem()); err != nil {
		return fmt.Errorf("figures: decoding job record: %w", err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("figures: decoding job record: %d trailing bytes", len(d.b))
	}
	return nil
}

// buildRecordCodec compiles t's codec, or reports why t cannot be a
// record.
func buildRecordCodec(t reflect.Type) (*recordCodec, error) {
	b := codecBuilder{building: make(map[reflect.Type]bool)}
	p, err := b.part(t, "record")
	if err != nil {
		return nil, fmt.Errorf("%w %v: %v", errRecordType, t, err)
	}
	h := fnv.New64a()
	_, _ = h.Write(b.layout) // a hash.Hash never returns an error
	return &recordCodec{fingerprint: h.Sum64(), enc: p.enc, dec: p.dec}, nil
}

// codecBuilder compiles a record type's codec and layout in one walk.
type codecBuilder struct {
	layout   []byte
	building map[reflect.Type]bool // structs on the current path
}

// codecPart is the codec of one type inside a record.
type codecPart struct {
	enc     encodeFn
	dec     decodeFn
	minSize int // the fewest bytes any value of the type encodes to
}

// part compiles t, appending its layout; path names t for errors.
func (b *codecBuilder) part(t reflect.Type, path string) (codecPart, error) {
	k := t.Kind()
	switch k {
	case reflect.Bool:
		b.layout = append(b.layout, "bool"...)
		return codecPart{encBool, decBool, 1}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.layout = append(b.layout, k.String()...)
		return codecPart{encInt, decInt, 1}, nil
	case reflect.Uint64:
		b.layout = append(b.layout, "uint64"...)
		return codecPart{encUint, decUint, 1}, nil
	case reflect.Float64:
		b.layout = append(b.layout, "float64"...)
		return codecPart{encFloat, decFloat, 8}, nil
	case reflect.String:
		b.layout = append(b.layout, "string"...)
		return codecPart{encString, decString, 1}, nil
	case reflect.Slice:
		b.layout = append(b.layout, "[]"...)
		elem, err := b.part(t.Elem(), path+"[]")
		if err != nil {
			return codecPart{}, err
		}
		if elem.minSize == 0 {
			return codecPart{}, fmt.Errorf("%s: element type %v encodes to no bytes", path, t.Elem())
		}
		return sliceCodec(t, elem), nil
	case reflect.Array:
		b.layout = strconv.AppendInt(append(b.layout, '['), int64(t.Len()), 10)
		b.layout = append(b.layout, ']')
		elem, err := b.part(t.Elem(), path+"[]")
		if err != nil {
			return codecPart{}, err
		}
		return arrayCodec(t.Len(), elem), nil
	case reflect.Struct:
		if b.building[t] {
			return codecPart{}, fmt.Errorf("%s: recursive type %v", path, t)
		}
		b.building[t] = true
		defer delete(b.building, t)
		b.layout = append(b.layout, "struct{"...)
		fields := make([]codecPart, t.NumField())
		size := 0
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return codecPart{}, fmt.Errorf("%s.%s: unexported field", path, f.Name)
			}
			b.layout = append(append(b.layout, f.Name...), ' ')
			p, err := b.part(f.Type, path+"."+f.Name)
			if err != nil {
				return codecPart{}, err
			}
			b.layout = append(b.layout, ';')
			fields[i] = p
			size += p.minSize
		}
		b.layout = append(b.layout, '}')
		return structCodec(fields, size), nil
	}
	return codecPart{}, fmt.Errorf("%s: %v is not a plain value", path, t)
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func decBool(d *recordDecoder, v reflect.Value) error {
	if len(d.b) == 0 {
		return errShortRecord
	}
	c := d.b[0]
	if c > 1 {
		return fmt.Errorf("bool byte %d", c)
	}
	d.b = d.b[1:]
	v.SetBool(c == 1)
	return nil
}

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func decInt(d *recordDecoder, v reflect.Value) error {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		return errBadVarint
	}
	if v.OverflowInt(x) {
		return fmt.Errorf("%d overflows %v", x, v.Type())
	}
	d.b = d.b[n:]
	v.SetInt(x)
	return nil
}

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func decUint(d *recordDecoder, v reflect.Value) error {
	x, err := d.uvarint()
	if err != nil {
		return err
	}
	v.SetUint(x)
	return nil
}

func encFloat(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func decFloat(d *recordDecoder, v reflect.Value) error {
	if len(d.b) < 8 {
		return errShortRecord
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b)))
	d.b = d.b[8:]
	return nil
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func decString(d *recordDecoder, v reflect.Value) error {
	n, err := d.length(1)
	if err != nil {
		return err
	}
	v.SetString(string(d.b[:n]))
	d.b = d.b[n:]
	return nil
}

func sliceCodec(t reflect.Type, elem codecPart) codecPart {
	enc := func(b []byte, v reflect.Value) []byte {
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	dec := func(d *recordDecoder, v reflect.Value) error {
		n, err := d.length(elem.minSize)
		if err != nil {
			return err
		}
		if n == 0 {
			v.SetZero()
			return nil
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			if err := elem.dec(d, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	}
	return codecPart{enc, dec, 1}
}

func arrayCodec(n int, elem codecPart) codecPart {
	enc := func(b []byte, v reflect.Value) []byte {
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	dec := func(d *recordDecoder, v reflect.Value) error {
		for i := 0; i < n; i++ {
			if err := elem.dec(d, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return codecPart{enc, dec, n * elem.minSize}
}

func structCodec(fields []codecPart, minSize int) codecPart {
	enc := func(b []byte, v reflect.Value) []byte {
		for i, f := range fields {
			b = f.enc(b, v.Field(i))
		}
		return b
	}
	dec := func(d *recordDecoder, v reflect.Value) error {
		for i, f := range fields {
			if err := f.dec(d, v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return codecPart{enc, dec, minSize}
}

var (
	errRecordType  = errors.New("figures: unsupported job record type")
	errShortRecord = errors.New("record truncated")
	errBadVarint   = errors.New("truncated or overlong varint")
)

// recordDecoder is the unread rest of a record.
type recordDecoder struct{ b []byte }

func (d *recordDecoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errBadVarint
	}
	d.b = d.b[n:]
	return x, nil
}

// length reads a slice or string length whose elements each encode to at
// least minSize bytes, refusing one the remaining bytes cannot hold.
func (d *recordDecoder) length(minSize int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)/minSize) {
		return 0, fmt.Errorf("length %d with %d bytes left: %w", n, len(d.b), errShortRecord)
	}
	return int(n), nil
}
