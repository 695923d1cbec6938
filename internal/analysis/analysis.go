// Package analysis is the project's static-analysis suite: a small,
// dependency-free analyzer framework (the same Analyzer/Pass/Diagnostic
// shape as golang.org/x/tools/go/analysis, rebuilt on the standard
// library so the module stays self-contained) plus three analyzers that
// encode adsala's load-bearing invariants:
//
//   - zeroalloc: functions annotated //adsala:zeroalloc must not contain
//     allocating constructs, transitively through same-module callees.
//   - ctxflow: no context.Background()/TODO() inside the serving
//     library package; exported HTTP-performing functions take
//     a context; every *http.Response body is closed AND drained; no
//     sync/atomic function is called (the typed wrappers only, so no
//     access to an atomic value can be plain).
//   - metricname: obs registrations use literal adsala_* names with
//     conventional suffixes, and conflicting registrations are rejected
//     at vet time instead of panicking at serve time.
//
// Run the suite with `go run ./cmd/adsala-vet ./...`. A diagnostic is
// suppressed by a comment on the same or the preceding line:
//
//	//adsala:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression without a rationale is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //adsala:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the package's type-checked object.
	Pkg *types.Package
	// Info holds the type information for Files.
	Info *types.Info
	// Module indexes every module-local package by import path — the
	// cross-package view transitive checks (zeroalloc) walk through.
	Module *Module

	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Analyzers returns the full project suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{ZeroAlloc, CtxFlow, MetricName}
}

// ignoreDirective is one parsed //adsala:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name, or "all"
	reason   string
	used     bool
	pos      token.Pos
}

var ignoreRe = regexp.MustCompile(`^//adsala:ignore\s+(\S+)\s*(.*)$`)

// ignoreIndex maps "file:line" to the directives covering that line. A
// directive covers its own line and the following one, matching the
// trailing-comment and own-line conventions of staticcheck's
// //lint:ignore.
type ignoreIndex struct {
	fset      *token.FileSet
	byLine    map[string][]*ignoreDirective
	malformed []token.Pos
}

// buildIgnoreIndex scans every comment of files for adsala:ignore
// directives.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{fset: fset, byLine: make(map[string][]*ignoreDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//adsala:ignore") {
					continue
				}
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					idx.malformed = append(idx.malformed, c.Pos())
					continue
				}
				d := &ignoreDirective{analyzer: m[1], reason: strings.TrimSpace(m[2]), pos: c.Pos()}
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					idx.byLine[key] = append(idx.byLine[key], d)
				}
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic of analyzer at pos is covered
// by an ignore directive, marking the directive used.
func (idx *ignoreIndex) suppressed(analyzer string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	for _, d := range idx.byLine[key] {
		if d.analyzer == analyzer || d.analyzer == "all" {
			d.used = true
			return true
		}
	}
	return false
}

// RunAnalyzers runs every analyzer over every module package and returns
// the surviving (non-suppressed) diagnostics in file/line order.
// Malformed ignore directives are reported as findings of the pseudo
// analyzer "ignore".
func RunAnalyzers(mod *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range mod.Sorted() {
		idx := buildIgnoreIndex(mod.Fset, pkg.Files)
		for _, pos := range idx.malformed {
			out = append(out, Diagnostic{
				Pos:      pos,
				Analyzer: "ignore",
				Message:  "malformed //adsala:ignore directive: want //adsala:ignore <analyzer> <reason>",
			})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   mod,
			}
			pass.report = func(d Diagnostic) {
				if idx.suppressed(a.Name, d.Pos) {
					return
				}
				d.Analyzer = a.Name
				out = append(out, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := mod.Fset.Position(out[i].Pos), mod.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// funcDoc returns the doc comment group of a function declaration,
// falling back to nil.
func funcDoc(decl *ast.FuncDecl) *ast.CommentGroup { return decl.Doc }

// hasDirective reports whether the comment group contains the exact
// //adsala:<name> directive on a line of its own.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//adsala:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}
