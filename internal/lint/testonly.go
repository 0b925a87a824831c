package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// KeepDirective exempts one declaration or struct field from the testonly
// check. It takes a reason and goes on its own line in the doc comment (or,
// for a field, in its trailing comment):
//
//	//memca:keep perfbench times this driver
//	func Fig10(o Options) (*Fig10Result, error) { ... }
const KeepDirective = "//memca:keep"

// APIPackage is the module's public API. Its declarations are roots of the
// testonly check: the examples and the module's users call them.
const APIPackage = "memca"

// CheckTestOnly is the whole-module testonly check. pkgs must hold every
// non-test package of the module (the check reads no _test.go file, so a
// name that only tests use looks unused here); api is the import path
// whose declarations are all public API.
//
// It reports two kinds of dead weight:
//
//   - every package-level func, method, type, var and const that no root
//     reaches. An iota const group counts as one declaration: it is
//     reached when any member is. Roots are main and init functions, every declaration of the
//     api package, and every declaration marked //memca:keep; a root
//     reaches what its declaration names, transitively. A method is also
//     reached when its (reached) receiver type implements an interface
//     whose method of that name a reached declaration calls, or an
//     interface from outside the module (fmt.Stringer, error,
//     http.Handler, ...), whose callers live in the standard library.
//   - every exported field of a reached exported struct that no non-test
//     code writes. A write is a composite-literal key or position, an
//     assignment or range assignment (to x.F, x.F[i], x.F.G, *x.F), an
//     inc/dec, &x.F, or a pointer-method call on x.F. A field with a json
//     tag counts as written by decoding.
//
// Each package is type-checked on its own against export data, so one
// declaration is several types.Objects across the module; the check
// identifies declarations by key (objKey, fieldKey) instead.
func CheckTestOnly(pkgs []*Package, api string) []Diagnostic {
	c := &testOnly{
		module:    make(map[string]bool, len(pkgs)),
		units:     make(map[string]*declUnit),
		usedIface: make(map[string]bool),
		written:   make(map[string]bool),
	}
	for _, pkg := range pkgs {
		c.module[pkg.ImportPath] = true
	}
	for _, pkg := range pkgs {
		c.collectUnits(pkg, pkg.ImportPath == api)
		c.collectWrites(pkg)
	}
	for _, pkg := range pkgs {
		c.collectDispatch(pkg)
	}
	c.mark()

	var diags []Diagnostic
	for _, u := range c.order {
		for _, obj := range u.objs {
			if u.noReason {
				diags = append(diags, noReason(u.pkg, obj.Pos()))
			}
			if !u.live {
				diags = append(diags, Diagnostic{
					Pos:      u.pkg.Fset.Position(obj.Pos()),
					Analyzer: "testonly",
					Message:  fmt.Sprintf("%s has no non-test use: delete it, or mark it %s <reason>", describe(obj), KeepDirective),
				})
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.ImportPath != api {
			diags = append(diags, c.unsetFields(pkg)...)
		}
	}
	return diags
}

// declUnit is one package-level declaration: a func or method, a type
// spec, or a var/const spec (which may define several names).
type declUnit struct {
	pkg  *Package
	objs []types.Object
	node ast.Node
	root bool
	live bool
	// noReason marks a //memca:keep without a reason, which keeps nothing.
	noReason bool
}

// dispatch is one way a method is reached through an interface: when the
// type is live and the interface method is called, the method is live.
type dispatch struct {
	typ, ifaceMethod, method string
}

type testOnly struct {
	module    map[string]bool
	units     map[string]*declUnit
	order     []*declUnit
	dispatch  []dispatch
	usedIface map[string]bool
	written   map[string]bool
}

// collectUnits records every package-level declaration of pkg.
func (c *testOnly) collectUnits(pkg *Package, isAPI bool) {
	isMain := pkg.Types.Name() == "main"
	for _, file := range pkg.Syntax {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				u := &declUnit{pkg: pkg, node: d}
				name := d.Name.Name
				plain := d.Recv == nil
				u.root = isAPI || (plain && name == "init") || (plain && isMain && name == "main")
				if obj := pkg.Info.Defs[d.Name]; obj != nil && name != "_" && !(plain && name == "init") {
					u.objs = []types.Object{obj}
				}
				c.add(u, d.Doc)
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				// Deleting one member of an iota group renumbers the rest,
				// so the group is one unit, reached when any member is.
				group := d.Tok == token.CONST && usesIota(pkg, d)
				u, docs := &declUnit{pkg: pkg, node: d, root: isAPI}, []*ast.CommentGroup{d.Doc}
				for _, spec := range d.Specs {
					if !group {
						u, docs = &declUnit{pkg: pkg, node: spec, root: isAPI}, docs[:1]
					}
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names, docs = []*ast.Ident{s.Name}, append(docs, s.Doc)
					case *ast.ValueSpec:
						names, docs = s.Names, append(docs, s.Doc)
					}
					for _, id := range names {
						if obj := pkg.Info.Defs[id]; obj != nil && id.Name != "_" {
							u.objs = append(u.objs, obj)
						}
					}
					if !group {
						c.add(u, docs...)
					}
				}
				if group {
					c.add(u, docs...)
				}
			}
		}
	}
}

// usesIota reports whether a const declaration's values use iota.
func usesIota(pkg *Package, d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		found = found || ok && pkg.Info.Uses[id] == types.Universe.Lookup("iota")
		return !found
	})
	return found
}

// add registers a unit, reading //memca:keep from its doc comments.
func (c *testOnly) add(u *declUnit, docs ...*ast.CommentGroup) {
	keep, reason := keepDirective(docs...)
	u.root = u.root || (keep && reason)
	u.noReason = keep && !reason
	c.order = append(c.order, u)
	for _, obj := range u.objs {
		c.units[objKey(obj)] = u
	}
}

// keepDirective reports whether the comments carry a //memca:keep, and
// whether it gives a reason.
func keepDirective(docs ...*ast.CommentGroup) (keep, reason bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, cm := range doc.List {
			rest, ok := strings.CutPrefix(cm.Text, KeepDirective)
			if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return true, strings.TrimSpace(rest) != ""
			}
		}
	}
	return false, false
}

// noReason reports a //memca:keep without a reason at the declaration it
// fails to keep.
func noReason(pkg *Package, pos token.Pos) Diagnostic {
	return Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: "testonly",
		Message:  KeepDirective + " needs a reason",
	}
}

// objKey identifies a package-level declaration or method across the
// packages' separate type-checks: "path.Name" or "path.Type.Method". It is
// "" for everything else (locals, fields, universe objects).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := derefType(recv.Type())
			if named, ok := t.(*types.Named); ok {
				return named.Origin().Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return fn.Pkg().Path() + "." + types.TypeString(t, nil) + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// mark floods liveness from the roots: through every object a live
// declaration names, and through interface dispatch onto the methods of
// live types.
func (c *testOnly) mark() {
	var queue []*declUnit
	live := func(u *declUnit) {
		if u != nil && !u.live {
			u.live = true
			queue = append(queue, u)
		}
	}
	for _, u := range c.order {
		if u.root {
			live(u)
		}
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ast.Inspect(u.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := u.pkg.Info.Uses[id]
					key := objKey(obj)
					if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
						c.usedIface[key] = true
					}
					live(c.units[key])
				}
				return true
			})
		}
		for _, d := range c.dispatch {
			if t := c.units[d.typ]; t != nil && t.live && (d.ifaceMethod == "" || c.usedIface[d.ifaceMethod]) {
				live(c.units[d.method])
			}
		}
	}
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// reflectiveInterfaces are the standard-library interfaces that reach a
// method without any module code naming the interface.
var reflectiveInterfaces = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"encoding/gob":  {"GobEncoder", "GobDecoder"},
}

// collectDispatch records, in pkg's view of the module, which methods of
// which named types implement an interface pkg mentions. A conversion of
// a value to an interface happens in a package that sees both, so pairing
// every interface pkg mentions with every module type pkg can see covers
// every conversion in the module.
func (c *testOnly) collectDispatch(pkg *Package) {
	ifaces := c.interfacesOf(pkg)
	for _, named := range c.visibleTypes(pkg) {
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, iface := range ifaces {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				sel := mset.Lookup(m.Pkg(), m.Name())
				if sel == nil {
					continue
				}
				d := dispatch{typ: objKey(named.Obj()), method: objKey(sel.Obj())}
				if m.Pkg() != nil && c.module[m.Pkg().Path()] {
					d.ifaceMethod = objKey(m)
				}
				c.dispatch = append(c.dispatch, d)
			}
		}
	}
}

// visibleTypes lists the module's non-generic, non-interface named types
// as pkg's type-check sees them: its own and those of the module packages
// it imports, directly or not.
func (c *testOnly) visibleTypes(pkg *Package) []*types.Named {
	var out []*types.Named
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] || !c.module[p.Path()] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
				out = append(out, named)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pkg.Types)
	return out
}

// interfacesOf gathers every non-empty interface type pkg's expressions
// and declarations mention, directly or inside a signature, composite
// type or type-parameter constraint, plus error and the reflective
// interfaces of the packages pkg imports.
func (c *testOnly) interfacesOf(pkg *Package) []*types.Interface {
	var out []*types.Interface
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		var iface *types.Interface
		switch t := t.(type) {
		case *types.Named:
			if t.TypeParams().Len() == 0 || t.TypeArgs().Len() > 0 {
				iface, _ = t.Underlying().(*types.Interface)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			iface = t
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.TypeParam:
			walk(t.Constraint())
		}
		if iface != nil && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	walk(types.Universe.Lookup("error").Type())
	for _, tv := range pkg.Info.Types {
		walk(tv.Type)
	}
	for _, obj := range pkg.Info.Defs {
		if obj != nil {
			walk(obj.Type())
		}
	}
	for _, obj := range pkg.Info.Uses {
		walk(obj.Type())
	}
	for _, imp := range pkg.Types.Imports() {
		for _, name := range reflectiveInterfaces[imp.Path()] {
			if obj := imp.Scope().Lookup(name); obj != nil {
				walk(obj.Type())
			}
		}
	}
	return out
}

// fieldKey identifies field name of the named struct type t (through one
// pointer), or is "" when t is not a named struct.
func fieldKey(t types.Type, name string) string {
	named, ok := derefType(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Origin().Obj()
	return obj.Pkg().Path() + "." + obj.Name() + "." + name
}

// collectWrites records every struct field pkg's code writes.
func (c *testOnly) collectWrites(pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				st, ok := derefType(t).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					name := ""
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							name = id.Name
						}
					} else if i < st.NumFields() {
						name = st.Field(i).Name()
					}
					c.written[fieldKey(t, name)] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					c.writeTo(info, lhs)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					c.writeTo(info, n.Key)
					c.writeTo(info, n.Value)
				}
			case *ast.IncDecStmt:
				c.writeTo(info, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					c.writeTo(info, n.X)
				}
			case *ast.SelectorExpr:
				// x.F.M() with a pointer receiver takes &x.F implicitly.
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.MethodVal {
					break
				}
				recv := sel.Obj().Type().(*types.Signature).Recv()
				_, ptrRecv := recv.Type().(*types.Pointer)
				_, onPtr := sel.Recv().(*types.Pointer)
				if ptrRecv && !onPtr {
					c.writeTo(info, n.X)
				}
			}
			return true
		})
	}
}

// writeTo marks every field on the selector chain of an assigned
// expression (x.F, x.F[i], x.F.G, *x.F) as written, including the embedded
// fields a promoted selection passes through.
func (c *testOnly) writeTo(info *types.Info, e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				t := sel.Recv()
				for _, idx := range sel.Index() {
					st, ok := derefType(t).Underlying().(*types.Struct)
					if !ok {
						break
					}
					f := st.Field(idx)
					c.written[fieldKey(t, f.Name())] = true
					t = f.Type()
				}
			}
			e = x.X
		default:
			return
		}
	}
}

// unsetFields reports the exported fields of pkg's live exported structs
// that no non-test code writes.
func (c *testOnly) unsetFields(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Syntax {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				tn := pkg.Info.Defs[ts.Name]
				if !ok || ts.Assign.IsValid() || tn == nil || !tn.Exported() {
					continue
				}
				if u := c.units[objKey(tn)]; u == nil || !u.live {
					continue
				}
				for _, field := range st.Fields.List {
					diags = append(diags, c.unsetField(pkg, tn, field)...)
				}
			}
		}
	}
	return diags
}

func (c *testOnly) unsetField(pkg *Package, tn types.Object, field *ast.Field) []Diagnostic {
	if field.Tag != nil {
		if tag, err := strconv.Unquote(field.Tag.Value); err == nil {
			if name, ok := reflect.StructTag(tag).Lookup("json"); ok && name != "-" {
				return nil
			}
		}
	}
	keep, reason := keepDirective(field.Doc, field.Comment)
	if keep && reason {
		return nil
	}
	names := field.Names
	if len(names) == 0 {
		names = []*ast.Ident{embeddedName(field.Type)}
	}
	var diags []Diagnostic
	for _, id := range names {
		if id == nil || !id.IsExported() {
			continue
		}
		if keep {
			diags = append(diags, noReason(pkg, id.Pos()))
		}
		if c.written[fieldKey(tn.Type(), id.Name)] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(id.Pos()),
			Analyzer: "testonly",
			Message:  fmt.Sprintf("field %s.%s is never set outside tests: delete it, or mark it %s <reason>", tn.Name(), id.Name, KeepDirective),
		})
	}
	return diags
}

// embeddedName returns the identifier that names an embedded field: T in
// T, *T, pkg.T and T[A].
func embeddedName(x ast.Expr) *ast.Ident {
	for {
		switch t := x.(type) {
		case *ast.Ident:
			return t
		case *ast.StarExpr:
			x = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		default:
			return nil
		}
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// describe names a declaration the way its source spells it.
func describe(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			return fmt.Sprintf("method %s.%s", types.TypeString(derefType(recv.Type()), types.RelativeTo(obj.Pkg())), obj.Name())
		}
		return "func " + obj.Name()
	case *types.TypeName:
		return "type " + obj.Name()
	case *types.Const:
		return "const " + obj.Name()
	default:
		return "var " + obj.Name()
	}
}
