package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ZeroAlloc rejects allocating constructs in functions annotated
// //adsala:zeroalloc, transitively through same-module callees. It is the
// static half of the hot-path allocation contract; testing.AllocsPerRun
// tests pin the same functions dynamically.
//
// Flagged constructs: make, new, append, slice/map composite literals,
// &T{...} literals, function literals (closures), go statements, fmt
// calls, string<->[]byte/[]rune conversions, and interface boxing of
// non-pointer-shaped values at call boundaries or explicit conversions.
// Dynamic calls (interface methods, function values) and calls out of the
// module cannot be inspected and are trusted — the AllocsPerRun tests
// cover that gap. So is a body-less module function, i.e. one implemented
// in assembly: it has no Go construct to inspect and cannot reach the
// allocator without calling back into Go. The rule is deliberate, not a
// lookup miss — the annotated Go wrapper around it is still checked
// (boxing or slicing on the way in is flagged), the declaration should be
// //go:noescape so its pointer arguments stay on the caller's stack, and the
// wrapper's AllocsPerRun test pins the pair.
var ZeroAlloc = &Analyzer{
	Name: "zeroalloc",
	Doc:  "reject allocating constructs in //adsala:zeroalloc functions, transitively through same-module callees",
	Run:  runZeroAlloc,
}

// allocSite is one allocating construct inside one function.
type allocSite struct {
	pos  token.Pos
	what string
}

// callEdge is one statically-resolved same-module call.
type callEdge struct {
	pos  token.Pos
	key  string
	name string // human-readable callee name (pkg.Func)
}

// funcFacts summarizes one function body for the transitive walk.
type funcFacts struct {
	local []allocSite
	calls []callEdge
}

// zeroAllocState memoizes per-function facts and per-package ignore
// indices across one package's run.
type zeroAllocState struct {
	mod     *Module
	facts   map[*FuncSource]*funcFacts
	ignores map[*Package]*ignoreIndex
}

func runZeroAlloc(pass *Pass) error {
	st := &zeroAllocState{
		mod:     pass.Module,
		facts:   make(map[*FuncSource]*funcFacts),
		ignores: make(map[*Package]*ignoreIndex),
	}
	pkg := pass.Module.Pkgs[pass.Pkg.Path()]
	if pkg == nil {
		return fmt.Errorf("package %s not in module view", pass.Pkg.Path())
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(funcDoc(fd), "zeroalloc") {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fs := pass.Module.FuncSource(obj)
			if fs == nil {
				continue
			}
			st.reportFunc(pass, fd.Name.Name, fs)
		}
	}
	return nil
}

// reportFunc reports every allocation reachable from the annotated root:
// local constructs at their own position, transitive ones at the call
// site that reaches them.
func (st *zeroAllocState) reportFunc(pass *Pass, name string, root *FuncSource) {
	facts := st.factsFor(root)
	for _, a := range facts.local {
		pass.Reportf(a.pos, "%s is //adsala:zeroalloc but %s", name, a.what)
	}
	for _, edge := range facts.calls {
		visiting := map[string]bool{FuncKey(mustFunc(root)): true}
		if hit := st.findAlloc(edge.key, visiting); hit != nil {
			pos := pass.Fset.Position(hit.pos)
			pass.Reportf(edge.pos, "%s is //adsala:zeroalloc but call to %s allocates: %s at %s:%d",
				name, edge.name, hit.what, pos.Filename, pos.Line)
		}
	}
}

// mustFunc resolves the types.Func of a FuncSource (always present: the
// index only holds checked declarations).
func mustFunc(fs *FuncSource) *types.Func {
	obj, _ := fs.Pkg.Info.Defs[fs.Decl.Name].(*types.Func)
	return obj
}

// findAlloc walks the same-module call graph from key and returns the
// first allocating construct found, or nil.
func (st *zeroAllocState) findAlloc(key string, visiting map[string]bool) *allocSite {
	if visiting[key] || len(visiting) > 64 {
		return nil
	}
	visiting[key] = true
	defer delete(visiting, key)
	fs := st.mod.funcs[key]
	if fs == nil {
		return nil // no Go body in the module: a trusted leaf (see ZeroAlloc)
	}
	facts := st.factsFor(fs)
	if len(facts.local) > 0 {
		return &facts.local[0]
	}
	for _, edge := range facts.calls {
		if hit := st.findAlloc(edge.key, visiting); hit != nil {
			return hit
		}
	}
	return nil
}

// factsFor computes (memoized) the allocation facts of one function,
// filtering local sites through the defining package's ignore directives
// so a justified //adsala:ignore on a helper suppresses findings in every
// annotated caller.
func (st *zeroAllocState) factsFor(fs *FuncSource) *funcFacts {
	if f, ok := st.facts[fs]; ok {
		return f
	}
	facts := &funcFacts{}
	st.facts[fs] = facts // pre-store: recursion terminates on cycles

	idx := st.ignores[fs.Pkg]
	if idx == nil {
		idx = buildIgnoreIndex(st.mod.Fset, fs.Pkg.Files)
		st.ignores[fs.Pkg] = idx
	}
	report := func(pos token.Pos, what string) {
		if !idx.suppressed("zeroalloc", pos) {
			facts.local = append(facts.local, allocSite{pos: pos, what: what})
		}
	}

	info := fs.Pkg.Info
	ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			report(node.Pos(), "function literal may allocate a closure")
			return false // constructs inside the closure belong to it
		case *ast.GoStmt:
			report(node.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			switch info.Types[node].Type.Underlying().(type) {
			case *types.Slice:
				report(node.Pos(), "slice literal allocates")
			case *types.Map:
				report(node.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := node.X.(*ast.CompositeLit); ok {
					report(node.Pos(), "&T{...} composite literal escapes to the heap")
				}
			}
		case *ast.CallExpr:
			st.checkCall(fs, node, report, facts)
		}
		return true
	})
	return facts
}

// checkCall classifies one call: builtin allocator, conversion, fmt call,
// static same-module edge, or unresolvable dynamic call (trusted).
func (st *zeroAllocState) checkCall(fs *FuncSource, call *ast.CallExpr, report func(token.Pos, string), facts *funcFacts) {
	info := fs.Pkg.Info

	// Type conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		st.checkConversion(fs, call, tv.Type, report)
		return
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		// Builtin or dynamic call.
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array")
			}
		}
		return
	}

	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		report(call.Pos(), "call to fmt."+callee.Name()+" allocates")
		return
	}

	st.checkBoxedArgs(fs, call, callee, report)

	if src := st.mod.FuncSource(callee); src != nil {
		name := callee.Name()
		if pkg := callee.Pkg(); pkg != nil {
			name = pkg.Name() + "." + name
		}
		facts.calls = append(facts.calls, callEdge{pos: call.Pos(), key: FuncKey(callee), name: name})
	}
}

// checkConversion flags conversions that allocate: string<->[]byte/[]rune
// and boxing a non-pointer-shaped value into an interface.
func (st *zeroAllocState) checkConversion(fs *FuncSource, call *ast.CallExpr, to types.Type, report func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	from := fs.Pkg.Info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	if isStringBytesConv(from, to) {
		report(call.Pos(), "string/[]byte conversion copies and allocates")
		return
	}
	if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) && !isPointerShaped(from) {
		report(call.Pos(), fmt.Sprintf("conversion of %s to interface boxes and allocates", from))
	}
}

// checkBoxedArgs flags arguments whose concrete non-pointer-shaped value
// is boxed into an interface parameter.
func (st *zeroAllocState) checkBoxedArgs(fs *FuncSource, call *ast.CallExpr, callee *types.Func, report func(token.Pos, string)) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	info := fs.Pkg.Info
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through ... does not box per element
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if types.IsInterface(at.Underlying()) || isPointerShaped(at) || isTypeParam(at) {
			continue
		}
		if info.Types[arg].Value != nil {
			continue // constants below 256 hit the runtime's static boxes
		}
		report(arg.Pos(), fmt.Sprintf("passing %s as interface %s boxes and allocates", at, pt))
	}
}

// calleeFunc resolves the static callee of a call, or nil for builtins,
// function values and interface-method calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			// An interface-method call is dynamic: no body to inspect.
			if types.IsInterface(sel.Recv().Underlying()) {
				return nil
			}
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func) // qualified pkg.Func
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	case *ast.IndexListExpr:
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// isPointerShaped reports whether values of t fit an interface data word
// without allocation: pointers, channels, maps, functions and
// unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isTypeParam reports whether t is a type parameter (generic code is
// checked per construct, not per instantiation; a type-param argument is
// trusted).
func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

// isStringBytesConv reports whether a conversion between from and to
// copies memory (string <-> []byte / []rune).
func isStringBytesConv(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isString(to) && isByteOrRuneSlice(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
