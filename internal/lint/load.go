package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
}

// Load enumerates the packages matching the go-list patterns (relative to
// dir, which must lie inside the module), parses their non-test Go files,
// and type-checks them. Imports — both standard library and intra-module —
// are resolved from compiled export data produced by `go list -export`, so
// loading works offline and tolerates cgo-backed dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, append([]string{"-json=ImportPath,Dir,Name,GoFiles"}, patterns...))
	if err != nil {
		return nil, err
	}
	deps, err := goList(dir, append([]string{"-export", "-deps", "-json=ImportPath,Export"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, d := range deps {
		if d.Export != "" {
			exports[d.ImportPath] = d.Export
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		if t.Name == "" || len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one listed package.
func checkPackage(fset *token.FileSet, imp types.Importer, t listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// goList runs `go list` with the given arguments and decodes the JSON
// stream it prints.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", args, err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
