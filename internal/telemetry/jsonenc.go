package telemetry

import (
	"encoding/json"
	"math"
	"strconv"
)

// The span and metric exporters write their JSON with direct appenders
// instead of encoding/json reflection, one line at a time through a
// trace.Artifact, so an export of a quarter-million events costs a few
// hundred write syscalls and almost no garbage. Every appender reproduces
// encoding/json's output for the one value shape it writes, so the files
// stay byte-identical to a json.Marshal of the documented Chrome
// trace-event and OTLP shapes; the golden files and FuzzSpanExport hold
// them to that.

// jsonBuffer is the write buffer of a JSON export: its files run to
// megabytes, so a large buffer keeps the write syscalls few.
const jsonBuffer = 64 << 10

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
