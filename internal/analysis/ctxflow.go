package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the project's context, HTTP-response and atomics
// hygiene:
//
//  1. Library code in internal/serve and internal/gather must not mint
//     its own context via context.Background()/TODO() — the
//     caller's deadline and cancellation must flow through (PR 7 made
//     every client and coordinator path context-bounded; this keeps it
//     that way). Compatibility wrappers that intentionally detach carry
//     an //adsala:ignore.
//  2. Exported functions that perform HTTP I/O directly must take a
//     context.Context parameter, and http.NewRequest is rejected in
//     favour of http.NewRequestWithContext.
//  3. Every *http.Response obtained in a function must have its Body
//     closed, and explicitly drained (io.Copy to io.Discard, or
//     io.ReadAll) before the close so the keep-alive connection is
//     reusable — the leaked-connection class of bug fixed in PR 7.
//     Responses that escape the function (returned or passed on) are the
//     callee's responsibility.
//  4. No sync/atomic function is called anywhere: the typed wrappers
//     (atomic.Int64, atomic.Bool, ...) make every access to a value
//     atomic by construction, where atomic.AddInt64(&x.n, 1) leaves x.n
//     open to a plain access that tears. The callee is resolved through
//     the type checker, so an aliased import does not escape the rule.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "thread contexts through library code, close+drain every http.Response body, call no sync/atomic functions",
	Run:  runCtxFlow,
}

// ctxRestricted lists the import-path suffixes of the packages where
// minting a fresh context is forbidden (library code on request paths).
var ctxRestricted = []string{"internal/serve", "internal/gather"}

func runCtxFlow(pass *Pass) error {
	restricted := false
	for _, suffix := range ctxRestricted {
		if strings.HasSuffix(pass.Pkg.Path(), suffix) {
			restricted = true
			break
		}
	}
	for _, f := range pass.Files {
		if restricted {
			checkNoFreshContext(pass, f)
		}
		checkNewRequest(pass, f)
		checkNoAtomicFuncs(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkExportedHTTPTakesCtx(pass, fd)
			checkBodyDrain(pass, fd)
		}
	}
	return nil
}

// checkNoFreshContext reports context.Background()/TODO() calls.
func checkNoFreshContext(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s() in library code — take the caller's context so deadlines and cancellation flow through",
				fn.Name())
		}
		return true
	})
}

// checkNewRequest reports http.NewRequest (the context-less constructor).
func checkNewRequest(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "NewRequest" {
			pass.Reportf(call.Pos(), "http.NewRequest drops the caller's context — use http.NewRequestWithContext")
		}
		return true
	})
}

// checkNoAtomicFuncs reports calls of sync/atomic package functions; the
// typed wrappers' methods have a receiver and pass.
func checkNoAtomicFuncs(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() == nil {
			pass.Reportf(call.Pos(),
				"sync/atomic.%s — use a typed wrapper (atomic.Int64, atomic.Bool, ...) so no access can be plain",
				fn.Name())
		}
		return true
	})
}

// checkExportedHTTPTakesCtx requires a context.Context parameter on
// exported functions that perform HTTP I/O in their own body.
func checkExportedHTTPTakesCtx(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || hasContextParam(pass.Info, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := httpIOCall(pass.Info, call); ok {
			pass.Reportf(fd.Pos(),
				"exported %s performs HTTP I/O (%s) but takes no context.Context — callers cannot bound or cancel it",
				fd.Name.Name, name)
			return false
		}
		return true
	})
}

// hasContextParam reports whether fd declares a context.Context parameter.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := info.Types[field.Type].Type
		if t == nil {
			continue
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				return true
			}
		}
	}
	return false
}

// httpIOCall reports whether call performs an HTTP round trip: a
// net/http package function (Get, Post, Head, PostForm) or an
// http.Client method (Do, Get, Post, PostForm, Head).
func httpIOCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Name() != "Client" {
			return "", false
		}
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "http.Client." + fn.Name(), true
		}
		return "", false
	}
	switch fn.Name() {
	case "Get", "Post", "Head", "PostForm":
		return "http." + fn.Name(), true
	}
	return "", false
}

// isHTTPResponse reports whether t is *net/http.Response.
func isHTTPResponse(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}

// respUse accumulates what one function does with one *http.Response.
type respUse struct {
	closed  bool
	drained bool
	escaped bool
}

// checkBodyDrain tracks every *http.Response-typed variable assigned in
// fd and requires Body.Close plus an explicit drain, unless the response
// escapes.
func checkBodyDrain(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// Collect response variables: idents assigned from a call that yields
	// *net/http.Response.
	respVars := make(map[*types.Var]*ast.Ident)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok || !isHTTPResponse(v.Type()) {
				continue
			}
			if _, seen := respVars[v]; !seen {
				respVars[v] = id
			}
		}
		return true
	})
	if len(respVars) == 0 {
		return
	}

	uses := make(map[*types.Var]*respUse)
	for v := range respVars {
		uses[v] = &respUse{}
	}
	walkWithParents(fd.Body, func(n ast.Node, parents []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil {
			return
		}
		use, tracked := uses[v]
		if !tracked {
			return
		}
		classifyRespUse(info, id, parents, use)
	})

	for v, use := range uses {
		id := respVars[v]
		switch {
		case use.escaped:
			// The response left this function; closing is the consumer's job.
		case !use.closed:
			pass.Reportf(id.Pos(), "response body of %s is never closed — every path must close it", v.Name())
		case !use.drained:
			pass.Reportf(id.Pos(),
				"response body of %s is closed but never drained — io.Copy(io.Discard, ...) before Close so the connection is reused",
				v.Name())
		}
	}
}

// classifyRespUse inspects one appearance of a response variable.
func classifyRespUse(info *types.Info, id *ast.Ident, parents []ast.Node, use *respUse) {
	if len(parents) == 0 {
		return
	}
	parent := parents[len(parents)-1]

	// resp.Body...
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		if sel.Sel.Name != "Body" {
			return // resp.StatusCode etc.
		}
		// resp.Body.Close() ?
		if len(parents) >= 3 {
			if outer, ok := parents[len(parents)-2].(*ast.SelectorExpr); ok && outer.Sel.Name == "Close" {
				if call, ok := parents[len(parents)-3].(*ast.CallExpr); ok && call.Fun == outer {
					use.closed = true
					return
				}
			}
		}
		// resp.Body handed to a call: a drain if any enclosing call is
		// io.Copy(io.Discard, ...) or io.ReadAll(...) — including through
		// wrappers like io.LimitReader. Any other read (a JSON decoder, a
		// bare LimitReader) does not guarantee the stream is consumed.
		for i := len(parents) - 2; i >= 0; i-- {
			if call, ok := parents[i].(*ast.CallExpr); ok && isDrainCall(info, call) {
				use.drained = true
				return
			}
		}
		return
	}

	// Bare resp passed along, returned, or stored: it escapes.
	switch p := parent.(type) {
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == id {
				use.escaped = true
			}
		}
	case *ast.ReturnStmt:
		use.escaped = true
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs == id {
				use.escaped = true
			}
		}
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		use.escaped = true
	}
}

// isDrainCall reports whether call fully consumes a body: io.Copy with
// io.Discard as destination, or io.ReadAll.
func isDrainCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == "io" && fn.Name() == "ReadAll",
		fn.Pkg().Path() == "io/ioutil" && fn.Name() == "ReadAll":
		return true
	case fn.Pkg().Path() == "io" && fn.Name() == "Copy",
		fn.Pkg().Path() == "io/ioutil" && fn.Name() == "Copy":
		if len(call.Args) < 1 {
			return false
		}
		dst, ok := unparen(call.Args[0]).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		obj, _ := info.Uses[dst.Sel].(*types.Var)
		return obj != nil && obj.Pkg() != nil &&
			(obj.Pkg().Path() == "io" || obj.Pkg().Path() == "io/ioutil") && obj.Name() == "Discard"
	}
	return false
}

// walkWithParents visits every node with the stack of its ancestors.
func walkWithParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
