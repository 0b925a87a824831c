package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixturePkg is the deliberate-escape corpus under testdata; building it by
// import path keeps the diagnostics' file paths relative to this directory.
const fixturePkg = "memca/internal/lint/testdata/allocbound"

func TestParseEscapes(t *testing.T) {
	output := strings.Join([]string{
		"# memca/internal/sim",
		"internal/sim/engine.go:10:6: can inline (*Engine).Now",
		"internal/sim/engine.go:42:13: leaking param: e",
		"# memca/internal/stats",
		"internal/stats/histogram.go:26:76: base escapes to heap",
		"internal/stats/histogram.go:12:2: moved to heap: cuts",
		"internal/stats/sample.go:8:10: make([]float64, 0, n) escapes to heap",
		"",
	}, "\n")
	byPkg := ParseEscapes(output)
	if len(byPkg) != 1 {
		t.Fatalf("got %d packages, want 1 (inline/leak chatter must not create entries): %v", len(byPkg), byPkg)
	}
	got := byPkg["memca/internal/stats"]
	want := []Escape{
		{File: "internal/stats/histogram.go", Line: 12, Col: 2, Message: "moved to heap: cuts"},
		{File: "internal/stats/histogram.go", Line: 26, Col: 76, Message: "base escapes to heap"},
		{File: "internal/stats/sample.go", Line: 8, Col: 10, Message: "make([]float64, 0, n) escapes to heap"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d escapes, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("escape %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCollectEscapesNamesFunctions pins how escapes are keyed: by the
// enclosing function, with a method's receiver type, and a closure's
// escapes under the function that declares it.
func TestCollectEscapesNamesFunctions(t *testing.T) {
	byPkg, err := CollectEscapes(".", fixturePkg)
	if err != nil {
		t.Fatalf("CollectEscapes: %v", err)
	}
	got := map[string]string{}
	for _, e := range byPkg[fixturePkg] {
		got[e.Message] = e.Func
	}
	want := map[string]string{
		"moved to heap: v":               "Leak",
		"n escapes to heap":              "Box",
		"make([]int, n) escapes to heap": "Grow",
		"c.n escapes to heap":            "(*Counter).Box",
		"moved to heap: sum":             "Counter.Adder",
		"func literal escapes to heap":   "Counter.Adder",
	}
	for msg, fn := range want {
		if got[msg] != fn {
			t.Errorf("%q: enclosing function %q, want %q", msg, got[msg], fn)
		}
	}
}

// TestDiffEscapes covers the gate's four cases on one budget: an escape
// with a new message fails, a second escape with a budgeted message in the
// same function fails, a function that moved to another file or line
// passes, and a count that fell is a stale note, not a failure.
func TestDiffEscapes(t *testing.T) {
	budget := []BudgetEntry{
		{Func: "F", Message: "x escapes to heap", Count: 1},
		{Func: "G", Message: "moved to heap: y", Count: 2},
		{Func: "H", Message: "moved to heap: gone", Count: 1},
	}
	moved := []Escape{
		// F and G moved to another file and other lines.
		{File: "b.go", Line: 40, Col: 3, Func: "F", Message: "x escapes to heap"},
		{File: "b.go", Line: 50, Col: 2, Func: "G", Message: "moved to heap: y"},
		{File: "b.go", Line: 51, Col: 2, Func: "G", Message: "moved to heap: y"},
		{File: "b.go", Line: 60, Col: 2, Func: "H", Message: "moved to heap: gone"},
	}
	if fresh, stale := DiffEscapes(budget, moved); len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("moved code: fresh = %v, stale = %v, want neither", fresh, stale)
	}

	newMsg := append(moved[:4:4], Escape{File: "b.go", Line: 41, Col: 9, Func: "F", Message: "z escapes to heap"})
	if fresh, _ := DiffEscapes(budget, newMsg); len(fresh) != 1 || fresh[0].Message != "z escapes to heap" {
		t.Errorf("new message: fresh = %v, want the z escape", fresh)
	}

	second := append(moved[:4:4], Escape{File: "b.go", Line: 45, Col: 5, Func: "F", Message: "x escapes to heap"})
	if fresh, _ := DiffEscapes(budget, second); len(fresh) != 1 || fresh[0].Line != 45 {
		t.Errorf("second same-message escape in F: fresh = %v, want the line-45 escape", fresh)
	}

	fell := moved[:2] // G lost one escape, H lost its only one
	fresh, stale := DiffEscapes(budget, fell)
	if len(fresh) != 0 {
		t.Errorf("fallen counts: fresh = %v, want none", fresh)
	}
	wantStale := []BudgetEntry{
		{Func: "G", Message: "moved to heap: y", Count: 1},
		{Func: "H", Message: "moved to heap: gone", Count: 1},
	}
	if len(stale) != len(wantStale) {
		t.Fatalf("fallen counts: stale = %v, want %v", stale, wantStale)
	}
	for i := range wantStale {
		if stale[i] != wantStale[i] {
			t.Errorf("stale %d = %+v, want %+v", i, stale[i], wantStale[i])
		}
	}
}

// TestBudgetByteStable regenerates the fixture budget twice and requires
// byte-identical output: the file must not churn under version control when
// the code has not changed.
func TestBudgetByteStable(t *testing.T) {
	first, err := CollectEscapes(".", fixturePkg)
	if err != nil {
		t.Fatalf("CollectEscapes: %v", err)
	}
	second, err := CollectEscapes(".", fixturePkg)
	if err != nil {
		t.Fatalf("CollectEscapes (second run): %v", err)
	}
	a, err := EncodeBudget(map[string][]BudgetEntry{fixturePkg: Tally(first[fixturePkg])})
	if err != nil {
		t.Fatalf("EncodeBudget: %v", err)
	}
	b, err := EncodeBudget(map[string][]BudgetEntry{fixturePkg: Tally(second[fixturePkg])})
	if err != nil {
		t.Fatalf("EncodeBudget (second run): %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("budget not byte-stable across regenerations:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if a[len(a)-1] != '\n' {
		t.Error("encoded budget must end in a newline")
	}
	es := first[fixturePkg]
	if len(es) < 3 {
		t.Fatalf("fixture produced %d escapes, want at least 3: %v", len(es), es)
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].File > es[i].File || (es[i-1].File == es[i].File && es[i-1].Line > es[i].Line) {
			t.Errorf("escapes not sorted: %+v before %+v", es[i-1], es[i])
		}
	}
}

// TestBudgetRoundTrip writes the fixture budget and reads it back.
func TestBudgetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.json")
	n, err := WriteBudget(".", path, []string{fixturePkg})
	if err != nil {
		t.Fatalf("WriteBudget: %v", err)
	}
	if n < 3 {
		t.Fatalf("WriteBudget wrote %d entries, want at least 3", n)
	}
	b, err := ReadBudget(path)
	if err != nil {
		t.Fatalf("ReadBudget: %v", err)
	}
	read := 0
	for _, e := range b.Packages[fixturePkg] {
		read += e.Count
	}
	if read != n {
		t.Errorf("round-trip lost escapes: wrote %d, read %d", n, read)
	}
	if !strings.Contains(b.Comment, "-update-budget") {
		t.Errorf("budget comment must carry the regeneration command, got %q", b.Comment)
	}
}

// TestNewEscapeReported removes one known entry from the fixture budget and
// proves the gate reports it as a new escape carrying the compiler's reason.
func TestNewEscapeReported(t *testing.T) {
	byPkg, err := CollectEscapes(".", fixturePkg)
	if err != nil {
		t.Fatalf("CollectEscapes: %v", err)
	}
	es := byPkg[fixturePkg]
	if len(es) == 0 {
		t.Fatal("fixture produced no escapes")
	}
	// Drop the "moved to heap" entry to simulate code that newly escapes.
	removed := es[0]
	for _, e := range es {
		if strings.HasPrefix(e.Message, "moved to heap") {
			removed = e
			break
		}
	}
	var trimmed []Escape
	for _, e := range es {
		if e != removed {
			trimmed = append(trimmed, e)
		}
	}
	// Plus a bogus entry the code no longer produces, to exercise the
	// stale-note path.
	entries := append(Tally(trimmed), BudgetEntry{Func: "Leak", Message: "ghost escapes to heap", Count: 1})

	path := filepath.Join(t.TempDir(), "budget.json")
	data, err := EncodeBudget(map[string][]BudgetEntry{fixturePkg: entries})
	if err != nil {
		t.Fatalf("EncodeBudget: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing trimmed budget: %v", err)
	}

	cfg := &Config{EscapeBudget: []string{fixturePkg}}
	diags, stale, err := CheckEscapeBudget(".", path, cfg)
	if err != nil {
		t.Fatalf("CheckEscapeBudget: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the removed escape: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "allocbound" {
		t.Errorf("analyzer = %q, want allocbound", d.Analyzer)
	}
	if d.Pos.Filename != removed.File || d.Pos.Line != removed.Line {
		t.Errorf("diagnostic at %s:%d, want %s:%d", d.Pos.Filename, d.Pos.Line, removed.File, removed.Line)
	}
	if !strings.Contains(d.Message, removed.Message) || !strings.Contains(d.Message, removed.Func) {
		t.Errorf("diagnostic %q must carry the compiler reason %q and the function %q", d.Message, removed.Message, removed.Func)
	}
	if !strings.Contains(d.Message, "-update-budget") {
		t.Errorf("diagnostic %q must point at the regeneration command", d.Message)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "ghost escapes to heap") {
		t.Errorf("stale notes = %v, want the ghost entry only", stale)
	}
}

// TestCheckEscapeBudgetMissingPackage pins the hard error when a budgeted
// package has no entry at all in the file.
func TestCheckEscapeBudgetMissingPackage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.json")
	data, err := EncodeBudget(map[string][]BudgetEntry{})
	if err != nil {
		t.Fatalf("EncodeBudget: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing empty budget: %v", err)
	}
	cfg := &Config{EscapeBudget: []string{fixturePkg}}
	if _, _, err := CheckEscapeBudget(".", path, cfg); err == nil || !strings.Contains(err.Error(), "-update-budget") {
		t.Errorf("missing package: err = %v, want -update-budget guidance", err)
	}
}
