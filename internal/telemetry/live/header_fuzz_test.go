package live

import "testing"

// FuzzTraceHeader checks the trace-context codec on arbitrary header
// values and (ID, attempt) pairs. Parsing never panics and reports
// failure as (0, 0, false); whatever it accepts formats back to a header
// that parses to the same context; and every ID > 0 with an attempt in
// [0, 65535] round-trips, while a zero ID or a larger attempt is refused.
func FuzzTraceHeader(f *testing.F) {
	for _, tc := range []struct {
		id      uint64
		attempt uint32
	}{{1, 0}, {42, 3}, {1<<64 - 1, 65535}} {
		f.Add(FormatTraceHeader(tc.id, int(tc.attempt)), tc.id, tc.attempt)
	}
	for _, v := range []string{
		"", ".", "5.", ".5", "abc", "5.x", "0.1", "5", "99999999999999999999999.1", "7.70000",
		"007.01",                  // leading zeros
		"100000000000000000000.1", // a 21-digit ID
		"18446744073709551616.0",  // 2^64
		"18446744073709551615.0",  // 2^64-1
		"5..1", "5.1.2", "5.1.",   // doubled dots
		"1.65536", "1.65535", // attempt past and at the limit
		"-1.1", "+1.1", "1.-1", " 1.1",
	} {
		f.Add(v, uint64(0), uint32(65536))
	}
	f.Fuzz(func(t *testing.T, v string, id uint64, attempt uint32) {
		gotID, gotAt, ok := ParseTraceHeader(v)
		if !ok {
			if gotID != 0 || gotAt != 0 {
				t.Fatalf("ParseTraceHeader(%q) failed but returned (%d, %d)", v, gotID, gotAt)
			}
		} else {
			if gotID == 0 || gotAt < 0 || gotAt > 1<<16-1 {
				t.Fatalf("ParseTraceHeader(%q) accepted (%d, %d)", v, gotID, gotAt)
			}
			h := FormatTraceHeader(gotID, gotAt)
			if id2, at2, ok2 := ParseTraceHeader(h); !ok2 || id2 != gotID || at2 != gotAt {
				t.Fatalf("ParseTraceHeader(%q) = (%d, %d); %q parses back to (%d, %d, %v)", v, gotID, gotAt, h, id2, at2, ok2)
			}
		}

		h := FormatTraceHeader(id, int(attempt))
		gotID, gotAt, ok = ParseTraceHeader(h)
		if id > 0 && attempt <= 1<<16-1 {
			if !ok || gotID != id || gotAt != int(attempt) {
				t.Fatalf("(%d, %d) formats as %q, which parses to (%d, %d, %v)", id, attempt, h, gotID, gotAt, ok)
			}
		} else if ok || gotID != 0 || gotAt != 0 {
			t.Fatalf("(%d, %d) formats as %q, which parses to (%d, %d, %v), want a refusal", id, attempt, h, gotID, gotAt, ok)
		}
	})
}
