package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allocbound is the escape-budget gate: it drives the compiler's own escape
// analysis (`go build -gcflags=-m`) over the hot-path packages, normalizes
// the "escapes to heap" / "moved to heap" diagnostics, tallies them by
// enclosing function and message, and diffs the tally against a checked-in
// budget file. Any escape the budget does not already account for fails
// lint with the compiler's reason string — so a new heap allocation on a
// zero-alloc path is caught at review time, on every path the compiler
// sees, not only on the paths a benchmark happens to exercise. The budget
// names no file, line or column, so an edit that only moves code leaves it
// unchanged, and a budget diff names the function that gained an escape.
//
// Unlike the AST analyzers, allocbound is not a per-package syntax pass: it
// shells out to the go tool (stdlib-subprocess only, same dependency budget
// as the loader) and is wired through cmd/memca-lint beside the Run suite.

// Escape is one heap-escape diagnostic from the compiler. File is
// slash-separated and relative to the module root (absolute for a
// standard-library body inlined into a budgeted package); Func is the
// enclosing function (see enclosingFunc).
type Escape struct {
	File    string
	Line    int
	Col     int
	Func    string
	Message string
}

// BudgetEntry allows Count heap escapes with one compiler message inside
// one function.
type BudgetEntry struct {
	Func    string `json:"func"`
	Message string `json:"message"`
	Count   int    `json:"count"`
}

// EscapeBudget is the checked-in allowance: for every budgeted package, the
// heap escapes the current code is known (and accepted) to have, counted by
// (function, message). The map is keyed by import path; entries are kept
// sorted so the JSON encoding is byte-stable across regenerations of
// identical code.
type EscapeBudget struct {
	// Comment documents the file's purpose and regeneration command inside
	// the artifact itself.
	Comment string `json:"comment"`
	// Packages maps import path -> sorted entries.
	Packages map[string][]BudgetEntry `json:"packages"`
}

const budgetComment = "Escape budget for the zero-alloc hot-path packages. " +
	"Each entry allows count heap escapes with one compiler message in one function, as the compiler reports them today. " +
	"memca-lint fails on any escape beyond these counts. " +
	"Regenerate deliberately with: go run ./cmd/memca-lint -update-budget"

// DefaultBudgetPath is where the budget lives, relative to the module root.
const DefaultBudgetPath = "internal/lint/testdata/escape_budget.json"

// CollectEscapes compiles the given packages (import paths or ./-relative
// patterns, resolved in dir) with -gcflags=-m and returns the heap-escape
// diagnostics grouped by package, each group sorted by position and each
// escape named by its enclosing function. The go tool replays compiler
// output from the build cache, so repeated runs over unchanged code are
// fast and byte-identical.
func CollectEscapes(dir string, pkgs ...string) (map[string][]Escape, error) {
	if len(pkgs) == 0 {
		return map[string][]Escape{}, nil
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m %v: %w\n%s", pkgs, err, out.String())
	}
	byPkg := ParseEscapes(out.String())
	fset, files := token.NewFileSet(), map[string]*ast.File{}
	for pkg, es := range byPkg {
		for i, e := range es {
			file := filepath.FromSlash(e.File)
			if !filepath.IsAbs(file) {
				file = filepath.Join(dir, file)
			}
			f, ok := files[file]
			if !ok {
				var err error
				if f, err = parser.ParseFile(fset, file, nil, parser.SkipObjectResolution); err != nil {
					return nil, fmt.Errorf("lint: naming the function of an escape: %w", err)
				}
				files[file] = f
			}
			es[i].Func = enclosingFunc(fset, f, e.Line, path.Base(pkg))
		}
	}
	return byPkg, nil
}

// enclosingFunc names the function declared in f around line: "F", or
// "T.M" / "(*T).M" for a method. A closure counts toward the function it
// is written in, and package-level initialization toward "init". A body
// the compiler inlined from another package (pkgName is the budgeted
// package's name) is qualified with its own package name, as in
// "slices.Insert".
func enclosingFunc(fset *token.FileSet, f *ast.File, line int, pkgName string) string {
	name := "init"
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fset.Position(fd.Pos()).Line <= line && line <= fset.Position(fd.End()).Line {
			name = funcDeclName(fd)
		}
	}
	if f.Name.Name != pkgName {
		name = f.Name.Name + "." + name
	}
	return name
}

// funcDeclName renders a function or method name with its receiver type,
// without type parameters.
func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	typ := d.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name // a receiver's base type is a type name
	if star {
		return "(*" + recv + ")." + d.Name.Name
	}
	return recv + "." + d.Name.Name
}

// ParseEscapes extracts the heap-escape diagnostics from `go build
// -gcflags=-m` output. The go tool groups each package's diagnostics under
// a "# import/path" header line; within a group, escape lines have the
// form "file.go:line:col: <what> escapes to heap" (or "moved to heap:
// <what>"). Inlining and parameter-leak chatter is ignored: only messages
// that mean "this allocation lands on the heap" are budgeted. Func is left
// empty; CollectEscapes fills it in.
func ParseEscapes(output string) map[string][]Escape {
	byPkg := make(map[string][]Escape)
	pkg := ""
	for _, line := range strings.Split(output, "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		esc, ok := parseEscapeLine(line)
		if !ok || pkg == "" {
			continue
		}
		byPkg[pkg] = append(byPkg[pkg], esc)
	}
	for p := range byPkg {
		sortEscapes(byPkg[p])
	}
	return byPkg
}

// parseEscapeLine splits "file:line:col: message" into an Escape.
func parseEscapeLine(line string) (Escape, bool) {
	// The message itself may contain colons (type literals), so split the
	// position prefix field by field from the left.
	rest := strings.TrimSpace(line)
	parts := strings.SplitN(rest, ":", 4)
	if len(parts) != 4 {
		return Escape{}, false
	}
	lineNo, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return Escape{}, false
	}
	return Escape{
		File:    filepath.ToSlash(parts[0]),
		Line:    lineNo,
		Col:     col,
		Message: strings.TrimSpace(parts[3]),
	}, true
}

func sortEscapes(es []Escape) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// budgetKey identifies one budget entry.
type budgetKey struct{ fn, msg string }

// Tally counts escapes by (function, message), sorted by function, then
// message.
func Tally(es []Escape) []BudgetEntry {
	counts := make(map[budgetKey]int)
	for _, e := range es {
		counts[budgetKey{e.Func, e.Message}]++
	}
	out := make([]BudgetEntry, 0, len(counts))
	for k, n := range counts {
		out = append(out, BudgetEntry{Func: k.fn, Message: k.msg, Count: n})
	}
	sortEntries(out)
	return out
}

func sortEntries(es []BudgetEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Func != es[j].Func {
			return es[i].Func < es[j].Func
		}
		return es[i].Message < es[j].Message
	})
}

// EncodeBudget renders the budget deterministically: sorted packages
// (encoding/json sorts map keys), sorted entries, two-space indentation,
// trailing newline. Two regenerations of identical code are byte-identical.
func EncodeBudget(byPkg map[string][]BudgetEntry) ([]byte, error) {
	b := EscapeBudget{Comment: budgetComment, Packages: byPkg}
	for p := range b.Packages {
		sortEntries(b.Packages[p])
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("lint: encoding escape budget: %w", err)
	}
	return append(data, '\n'), nil
}

// ReadBudget loads and decodes a budget file.
func ReadBudget(path string) (*EscapeBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: reading escape budget: %w", err)
	}
	var b EscapeBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: decoding escape budget %s: %w", path, err)
	}
	if b.Packages == nil {
		b.Packages = map[string][]BudgetEntry{}
	}
	return &b, nil
}

// WriteBudget collects the current escapes of the budgeted packages and
// writes the budget file. It returns the number of escapes it accepted.
func WriteBudget(dir, path string, pkgs []string) (int, error) {
	byPkg, err := CollectEscapes(dir, pkgs...)
	if err != nil {
		return 0, err
	}
	// Budgeted packages with zero escapes still get an (empty) entry so the
	// file names the full contract surface, not just its current offenders.
	budget := make(map[string][]BudgetEntry, len(pkgs))
	n := 0
	for _, p := range pkgs {
		budget[p] = Tally(byPkg[p])
		n += len(byPkg[p])
	}
	data, err := EncodeBudget(budget)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("lint: writing escape budget: %w", err)
	}
	return n, nil
}

// DiffEscapes compares the current escapes of one package against its
// budget. Where a (function, message) key has more escapes than the budget
// allows, the surplus, last in source order, comes back as fresh: the
// gate's failures. Where it has fewer, the entry comes back in stale with
// Count set to how many budgeted escapes are no longer produced: the code
// improved and the budget can be tightened by regenerating.
func DiffEscapes(budget []BudgetEntry, current []Escape) (fresh []Escape, stale []BudgetEntry) {
	allowed := make(map[budgetKey]int, len(budget))
	for _, b := range budget {
		allowed[budgetKey{b.Func, b.Message}] += b.Count
	}
	byKey := make(map[budgetKey][]Escape)
	for _, e := range current {
		k := budgetKey{e.Func, e.Message}
		byKey[k] = append(byKey[k], e)
	}
	for k, es := range byKey {
		if surplus := len(es) - allowed[k]; surplus > 0 {
			sortEscapes(es)
			fresh = append(fresh, es[len(es)-surplus:]...)
		}
	}
	for _, b := range budget {
		if gone := b.Count - len(byKey[budgetKey{b.Func, b.Message}]); gone > 0 {
			stale = append(stale, BudgetEntry{Func: b.Func, Message: b.Message, Count: gone})
		}
	}
	sortEscapes(fresh)
	sortEntries(stale)
	return fresh, stale
}

// CheckEscapeBudget runs the allocbound gate: collect the current escapes
// of every budgeted package and diff them against the budget file. New
// escapes come back as diagnostics (one per escape, carrying the compiler's
// reason); counts that fell come back separately as non-fatal notices.
func CheckEscapeBudget(dir, budgetPath string, cfg *Config) (diags []Diagnostic, staleNotes []string, err error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	budget, err := ReadBudget(budgetPath)
	if err != nil {
		return nil, nil, err
	}
	current, err := CollectEscapes(dir, cfg.EscapeBudget...)
	if err != nil {
		return nil, nil, err
	}
	for _, pkg := range cfg.EscapeBudget {
		budgeted, ok := budget.Packages[pkg]
		if !ok {
			return nil, nil, fmt.Errorf("lint: package %s is under the escape budget but missing from %s; regenerate with -update-budget", pkg, budgetPath)
		}
		fresh, stale := DiffEscapes(budgeted, current[pkg])
		for _, e := range fresh {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: e.File, Line: e.Line, Column: e.Col},
				Analyzer: "allocbound",
				Message:  fmt.Sprintf("new heap escape in budgeted package %s, function %s: %s (accept deliberately with `go run ./cmd/memca-lint -update-budget`)", pkg, e.Func, e.Message),
			})
		}
		for _, b := range stale {
			staleNotes = append(staleNotes, fmt.Sprintf("%s %s: %d budgeted escape(s) no longer produced (%s) — tighten with -update-budget", pkg, b.Func, b.Count, b.Message))
		}
	}
	sort.Strings(staleNotes)
	return diags, staleNotes, nil
}
