package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AnalyzerFloatCompare flags exact ==/!= comparisons between floating-point
// operands. Accumulated rounding error makes exact float equality a
// correctness trap; comparisons must go through the epsilon helpers in
// internal/stats (stats.ApproxEqual / stats.ApproxEqualTol).
//
// Two comparisons are deliberately exempt:
//
//   - comparisons where one side is the constant zero: zero is exactly
//     representable, and `x == 0` guards (division, empty-sample checks)
//     test "was this ever assigned", not "is this numerically close";
//   - comparisons where both sides are constants, which the compiler
//     evaluates in exact arithmetic.
func AnalyzerFloatCompare() *Analyzer {
	return &Analyzer{
		Name: "floatcompare",
		Doc:  "no exact ==/!= on floating-point operands; use the epsilon helpers in internal/stats",
		Run:  runFloatCompare,
	}
}

func runFloatCompare(pkg *Package, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			x, y := pkg.Info.Types[bin.X], pkg.Info.Types[bin.Y]
			if !isFloat(x.Type) && !isFloat(y.Type) {
				return true
			}
			if isZeroConst(x.Value) || isZeroConst(y.Value) {
				return true
			}
			if x.Value != nil && y.Value != nil {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(bin.Pos()),
				Analyzer: "floatcompare",
				Message:  fmt.Sprintf("exact float comparison (%s): use stats.ApproxEqual or an explicit tolerance", bin.Op),
			})
			return true
		})
	}
	return diags
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (covering named types such as `type Fraction float64`).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether v is a numeric constant equal to zero.
func isZeroConst(v constant.Value) bool {
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}
