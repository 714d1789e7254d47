// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: Analyzer, Pass, Diagnostic,
// plus the go-list-based loader (load.go) and the repo's //bc: directive
// conventions (directive.go).
//
// The container this repo builds in has no module proxy access, so the
// real x/tools framework cannot be fetched; the types here keep the same
// names and shapes so each analyzer's Run function would port to the real
// framework by changing one import. Only the subset the repolint suite
// needs is implemented: no facts, no analyzer dependencies, no suggested
// fixes. One addition has no x/tools counterpart: a module-wide analyzer
// (RunModule), for a verdict on a declaration that depends on every
// package that could refer to it.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static-analysis pass: a stable name (used in
// diagnostics), human-readable documentation, and either a Run function
// invoked once per type-checked compilation unit or a RunModule function
// invoked once with every loaded unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (interface{}, error)

	// RunModule, set instead of Run, sees all units at once. It judges
	// the units it is given, so it is meaningful over the whole module
	// (./...) only.
	RunModule func(*ModulePass) error
}

// A ModulePass provides every loaded unit to a module-wide analyzer. The
// units share Fset; Caller units (from a module nested below the loaded
// one) are there for their references only and are never reported on.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit
	Report   func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Pass provides one compilation unit to an analyzer: the parsed files,
// the type-checked package, and the Report sink for diagnostics. A unit is
// either a plain package, a package augmented with its in-package test
// files, or an external _test package (see load.go).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	directives map[*ast.File][]Directive
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// WalkStack traverses every file of the pass in depth-first order, calling
// fn with each node and the stack of its ancestors (outermost first, not
// including n itself). If fn returns false the node's children are
// skipped. It is the parent-aware complement of ast.Inspect that rules
// like "append must feed its own slice back" need.
func (p *Pass) WalkStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// IsNamed reports whether t (after pointer indirection) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// CalleeObj resolves the object a call expression invokes (function,
// method, or builtin), or nil when the callee is not a simple identifier
// or selector (e.g. a call of a function-typed expression).
func (p *Pass) CalleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// IsPkgCall reports whether call invokes the function pkgPath.name.
func (p *Pass) IsPkgCall(call *ast.CallExpr, pkgPath, name string) bool {
	obj := p.CalleeObj(call)
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}
