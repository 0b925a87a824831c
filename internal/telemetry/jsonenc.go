package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// The span and metric exporters write their JSON with direct appenders
// instead of encoding/json reflection: each line is appended into one
// reused scratch slice and handed to a single buffered writer, so an
// export of a quarter-million events costs a few hundred write syscalls
// and almost no garbage. Every appender reproduces encoding/json's output
// for the one value shape it writes, so the files stay byte-identical to
// a json.Marshal of the documented Chrome trace-event and OTLP shapes;
// the golden files and FuzzSpanExport hold them to that.

// exportFile is one export artifact: the created file behind a buffered
// writer, plus the scratch slice lines are appended into.
type exportFile struct {
	path    string
	f       *os.File
	w       *bufio.Writer
	scratch []byte
}

// createExport creates path (and its directory) for writing.
func createExport(path string) (*exportFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: creating directory for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: creating %s: %w", path, err)
	}
	return &exportFile{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), scratch: make([]byte, 0, 4096)}, nil
}

// line returns the empty scratch slice to append the next output into.
func (x *exportFile) line() []byte { return x.scratch[:0] }

// put writes b (appended onto line()) and keeps its storage as the
// scratch for the next line. bufio.Writer errors are sticky: after a
// failed write every later put is a no-op and close reports the error.
func (x *exportFile) put(b []byte) {
	x.scratch = b[:0]
	_, _ = x.w.Write(b)
}

// close flushes and closes the file, returning the first write, flush
// or close error.
func (x *exportFile) close() error {
	err := x.w.Flush()
	if err != nil {
		err = fmt.Errorf("telemetry: writing %s: %w", x.path, err)
	}
	if cerr := x.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("telemetry: closing %s: %w", x.path, cerr)
	}
	return err
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML-sensitive <, > and & needs no escape;
// any other string — only ever a tier name or service prefix — falls back
// to encoding/json, whose escaping (HTML-safe, invalid UTF-8 as \ufffd,
// U+2028 and U+2029 as \u escapes) is the contract.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f exactly as encoding/json formats a
// float64: the shortest round-tripping decimal, switching to exponent
// notation (with a single-digit negative exponent unpadded) outside
// [1e-6, 1e21).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-07 → e-7
			b = b[:n-1]
		}
	}
	return b
}

// appendQuotedInt appends v as a decimal JSON string, the protobuf JSON
// mapping of int64 and fixed64 fields.
func appendQuotedInt(b []byte, v int64) []byte {
	b = append(b, '"')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '"')
}

// appendHex16 appends v as 16 zero-padded lowercase hex digits.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>uint(shift)&0xf])
	}
	return b
}

// appendIntAttr appends an OTLP KeyValue with an intValue; key must need
// no escaping.
func appendIntAttr(b []byte, key string, v int64) []byte {
	b = append(b, `{"key":"`...)
	b = append(b, key...)
	b = append(b, `","value":{"intValue":`...)
	b = appendQuotedInt(b, v)
	return append(b, "}}"...)
}
