package analysis

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
	"sort"
	"strings"
)

// Module is the loaded, type-checked view of the current Go module: the
// unit the suite analyzes. Dependencies (standard library included) are
// imported from compiler export data, so loading costs one `go list
// -export` invocation plus a source type-check of the module's own
// packages — and the export data is produced through the Go build cache,
// which is what keeps repeated CI runs fast.
type Module struct {
	Fset *token.FileSet
	// Path is the module path ("repro").
	Path string
	// Pkgs maps import path to loaded package, module-local packages only.
	Pkgs map[string]*Package

	funcs map[string]*FuncSource
}

// Package is one type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// FuncSource locates the source of one module function — the unit the
// transitive zeroalloc walk resolves callees to.
type FuncSource struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// Sorted returns the module packages in import-path order.
func (m *Module) Sorted() []*Package {
	paths := make([]string, 0, len(m.Pkgs))
	for p := range m.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, p := range paths {
		out[i] = m.Pkgs[p]
	}
	return out
}

// InModule reports whether the import path belongs to the analyzed module.
func (m *Module) InModule(path string) bool {
	return path == m.Path || strings.HasPrefix(path, m.Path+"/")
}

// FuncKey canonicalizes a function object for cross-package lookup:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for methods
// (pointer receivers stripped). Objects imported from export data and
// objects type-checked from source produce the same key.
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // builtins like error.Error
	}
	key := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch tt := t.(type) {
		case *types.Named:
			key += "." + tt.Obj().Name()
		default:
			key += "." + t.String()
		}
	}
	return key + "." + fn.Name()
}

// FuncSource returns the module source of fn, or nil when fn is not a
// module function with a Go body (external, interface method, builtin,
// assembly-backed).
func (m *Module) FuncSource(fn *types.Func) *FuncSource {
	if fn == nil || fn.Pkg() == nil || !m.InModule(fn.Pkg().Path()) {
		return nil
	}
	return m.funcs[FuncKey(fn)]
}

// listPackage mirrors the fields of `go list -json` the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
	DepsErrors []*struct{ Err string }
	Error      *struct{ Err string }
}

// Load runs `go list -export -deps -json` for the patterns in dir, parses
// and type-checks every module-local package from source (dependencies
// come from export data), and returns the module view.
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Standard,Export,GoFiles,Module,Error,DepsErrors"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, &lp)
	}

	mod := &Module{
		Fset:  token.NewFileSet(),
		Pkgs:  make(map[string]*Package),
		funcs: make(map[string]*FuncSource),
	}
	exports := make(map[string]string)
	var local []*listPackage
	for _, lp := range pkgs {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Module != nil && !lp.Standard {
			if mod.Path == "" {
				mod.Path = lp.Module.Path
			}
			local = append(local, lp)
		}
	}
	if mod.Path == "" {
		return nil, fmt.Errorf("analysis: no module packages matched %v", patterns)
	}

	imp := importer.ForCompiler(mod.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	for _, lp := range local {
		pkg, err := checkPackage(mod.Fset, imp, lp)
		if err != nil {
			return nil, err
		}
		mod.Pkgs[lp.ImportPath] = pkg
		indexFuncs(mod, pkg)
	}
	return mod, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Types: tpkg, Info: info}, nil
}

// indexFuncs registers every function declaration of pkg that has a Go body
// under its canonical key. A body-less declaration is implemented in
// assembly: it stays out of the index on purpose, which is what makes it a
// trusted leaf of the zeroalloc walk (see ZeroAlloc).
func indexFuncs(mod *Module, pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			mod.funcs[FuncKey(obj)] = &FuncSource{Pkg: pkg, Decl: fd}
		}
	}
}
