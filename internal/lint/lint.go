// Package lint implements memca-lint, the project's custom static-analysis
// suite. It enforces the invariants the paper reproduction rests on:
//
//   - simdeterminism: simulation-path packages draw all randomness from an
//     injected *rand.Rand; the global math/rand source and nondeterministic
//     seeds are forbidden there.
//   - clockdiscipline: simulated-time code never touches the wall clock.
//     Only the real-socket framework packages and the binaries in cmd/ and
//     examples/ may call time.Now, time.Sleep, and friends.
//   - floatcompare: no exact ==/!= on floating-point operands outside test
//     files; epsilon comparisons go through internal/stats.
//   - errdrop: no silently discarded error return values in non-test code.
//   - hotpathalloc: functions marked //memca:hotpath (and everything they
//     call within their package) avoid alloc-prone constructs — capturing
//     closures, interface boxing, fmt, string concatenation, un-presized
//     append/make(map).
//   - atomicmix: a variable accessed through sync/atomic anywhere in a
//     package is never read or written plainly elsewhere in that package,
//     and typed atomics are never copied by value.
//   - allocbound (wired through cmd/memca-lint, not a per-package AST
//     pass): the compiler's own escape analysis over the hot-path packages
//     must stay within the checked-in budget, a count per (function,
//     message); any escape beyond its count fails lint.
//   - testonly (CheckTestOnly, also whole-module): no declaration only
//     tests reach and no exported field only tests set, outside the memca
//     API package and //memca:keep <reason> declarations.
//
// The analyzers are built on the standard library only (go/parser, go/types
// with compiled export data from `go list -export`), so the suite adds no
// module dependencies and runs offline.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked, non-test compilation unit under analysis.
// Test files (_test.go) are deliberately excluded: the determinism and
// error-handling invariants must hold in library code, while tests run
// under the go test harness with its own timeouts and failure reporting.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one named check. Run inspects a package and returns findings;
// it must not mutate the package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Package, *Config) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerSimDeterminism(),
		AnalyzerClockDiscipline(),
		AnalyzerFloatCompare(),
		AnalyzerErrDrop(),
		AnalyzerHotPathAlloc(),
		AnalyzerAtomicMix(),
	}
}

// Run applies every analyzer to every package and returns all findings
// sorted by position. A nil config selects DefaultConfig.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(pkg, cfg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pos, out[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// importedPackage reports the import path of the package an identifier
// refers to, or "" when the expression is not a package qualifier.
func importedPackage(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
