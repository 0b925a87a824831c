package trace

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"unicode"
	"unicode/utf8"
)

// Every CSV here and every JSON export in telemetry is written the same
// way: each line is appended into one reused scratch slice and handed to
// a single buffered writer, so an artifact costs a few write syscalls per
// buffer's worth of output and no per-line or per-cell garbage.

// CSVBuffer is the write buffer of a CSV artifact: 4 KiB, what
// encoding/csv's writer allocates per file. A figure run writes many
// small CSVs, where a larger buffer would cost more than it saves.
const CSVBuffer = 4 << 10

// Artifact is one export artifact: the created file behind a buffered
// writer, plus the scratch slice lines are appended into.
type Artifact struct {
	path    string
	f       *os.File
	w       *bufio.Writer
	scratch []byte
}

// Create creates path (and its directory) for writing through a
// bufSize-byte buffer. The line scratch starts at a sixteenth of the
// buffer and keeps the storage of the longest line put so far.
func Create(path string, bufSize int) (*Artifact, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating directory for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: creating %s: %w", path, err)
	}
	return &Artifact{path: path, f: f, w: bufio.NewWriterSize(f, bufSize), scratch: make([]byte, 0, bufSize/16)}, nil
}

// Line returns the empty scratch slice to append the next output into.
func (a *Artifact) Line() []byte { return a.scratch[:0] }

// Put writes b (appended onto Line()) and keeps its storage as the
// scratch for the next line. bufio.Writer errors are sticky: after a
// failed write every later Put is a no-op and Close reports the error.
func (a *Artifact) Put(b []byte) {
	a.scratch = b[:0]
	_, _ = a.w.Write(b)
}

// Close flushes and closes the file, returning the first write, flush
// or close error.
func (a *Artifact) Close() error {
	err := a.w.Flush()
	if err != nil {
		err = fmt.Errorf("trace: writing %s: %w", a.path, err)
	}
	if cerr := a.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace: closing %s: %w", a.path, cerr)
	}
	return err
}

// AppendCSVField appends s as one CSV field, quoted exactly when
// encoding/csv's writer quotes it: when s is `\.`, contains a comma, a
// quote, CR or LF, or begins with a Unicode space. A quoted field doubles
// its quotes; the empty field stays unquoted. FuzzWriteCSV holds it to
// csv.Writer.
func AppendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\r' || c == '\n' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// AppendCSVRecord appends fields as one comma-separated CSV record,
// newline included.
func AppendCSVRecord(b []byte, fields []string) []byte {
	for i, s := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendCSVField(b, s)
	}
	return append(b, '\n')
}
