// Package lint implements stlint, the simulator's static-analysis suite.
//
// The headline properties of this repository — byte-identical experiment
// output, a 0 allocs/op cycle loop, fault-injectable I/O, and typed
// failure paths — are conventions that no compiler checks. This package turns each convention into a
// machine-checked analyzer:
//
//   - barepanic: internal/pipe, internal/sim, internal/grid and
//     internal/store may panic only at sites annotated `// invariant:` or
//     `// fail-fast:`; everything else must flow through the typed
//     *pipe.RunError plumbing. (AST-aware successor of the CI grep gate.)
//   - fsseam: internal/store and internal/grid must route all file I/O
//     through the store.FS seam so faultinject.DiskFS can intercept it;
//     direct os.* / syscall file operations are allowed only in the seam's
//     production implementation (fs.go).
//   - determinism: the packages whose output must be byte-identical may not
//     read the wall clock (time.Now/Since; `//st:wallclock` opts a site
//     out), draw from the global math/rand generators, or iterate a map in
//     unordered fashion (`//st:unordered` opts a provably order-free loop
//     out).
//   - hotalloc: functions annotated `//st:hotpath` may not contain
//     allocation-inducing constructs (make/new, slice/map literals,
//     closures, non-self appends, interface boxing); `//st:alloc-ok` opts
//     a justified site out. This is the static half of the 0 allocs/op
//     benchmark gate.
//
// The framework deliberately mirrors a subset of the golang.org/x/tools
// go/analysis API (Analyzer, Pass, Diagnostic) but is built on the standard
// library only: the repository has no module dependencies, and the linter
// keeps it that way. Main (driver.go) speaks the `go vet -vettool`
// protocol, so CI runs the suite as `go vet -vettool=stlint ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf. It returns an error only for analyzer-internal failures
	// (which abort the whole run), never for findings.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package unit. For test
// units (`go vet` analyzes packages together with their _test.go files)
// Files includes the test files; IsTestFile distinguishes them.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	notes  map[*ast.File]noteIndex
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full stlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{BarePanic, FSSeam, Determinism, HotAlloc}
}

// PkgPath returns the unit's package path with any test-variant suffix
// ("pkg [pkg.test]") stripped, so scope checks treat a package and its
// in-package test unit identically.
func (p *Pass) PkgPath() string {
	path := p.Pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// inScope reports whether the unit's package path matches one of the given
// path suffixes (e.g. "internal/pipe" matches "selthrottle/internal/pipe").
// Fixture packages under testdata use the real packages' paths, so analyzer
// tests exercise the same scope logic production runs do.
func (p *Pass) inScope(suffixes []string) bool {
	path := p.PkgPath()
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether f is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// noteIndex maps a line number to the concatenated comment text appearing on
// that line (trailing comments and whole-line comments alike).
type noteIndex map[int]string

// noteIndexFor builds (and caches) the comment-line index of f.
func (p *Pass) noteIndexFor(f *ast.File) noteIndex {
	if idx, ok := p.notes[f]; ok {
		return idx
	}
	idx := make(noteIndex)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := p.Fset.Position(c.Pos()).Line
			for i, part := range strings.Split(c.Text, "\n") {
				idx[line+i] += part
			}
		}
	}
	if p.notes == nil {
		p.notes = make(map[*ast.File]noteIndex)
	}
	p.notes[f] = idx
	return idx
}

// fileOf returns the *ast.File of p.Files containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// noteAt reports whether the line holding pos — or the line immediately
// above it — carries a comment containing marker. This is how sites opt out
// of an analyzer: a trailing annotation on the offending line, or a comment
// line of its own directly above.
func (p *Pass) noteAt(pos token.Pos, marker string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	idx := p.noteIndexFor(f)
	line := p.Fset.Position(pos).Line
	return strings.Contains(idx[line], marker) || strings.Contains(idx[line-1], marker)
}

// docHas reports whether a declaration's doc comment contains marker.
func docHas(doc *ast.CommentGroup, marker string) bool {
	return doc != nil && strings.Contains(doc.Text(), marker)
}

// directiveIn reports whether a doc comment group carries the given
// machine directive (e.g. "//st:hotpath"). Directives are not part of
// CommentGroup.Text (go/ast strips them from godoc text), so this scans the
// raw comment lines.
func directiveIn(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		for _, ln := range strings.Split(c.Text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(ln), directive) {
				return true
			}
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the imported package it names, or nil.
func (p *Pass) pkgNameOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// selectorPkg returns the import path and selected name of a
// package-qualified selector (`os.Open` → "os", "Open"), or "" if sel is not
// one (e.g. a field or method access).
func (p *Pass) selectorPkg(sel *ast.SelectorExpr) (path, name string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn := p.pkgNameOf(id)
	if pn == nil {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// isBuiltin reports whether id resolves to the universe-scope builtin of
// that name (guarding against local shadowing of panic, append, make...).
func (p *Pass) isBuiltin(id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	obj, ok := p.TypesInfo.Uses[id]
	if !ok {
		return false
	}
	_, isb := obj.(*types.Builtin)
	return isb
}
