// Package rankdead enforces the PR 7 fault-handling contract at MPI call
// sites: rank-death and coordinator-loss are typed conditions
// (mpi.ErrRankDead via AsRankDead/errors.Is, core.ErrCoordinatorLost via
// errors.Is), and the error result of a transport op is part of the
// protocol — dropping it turns a detected death into a hang or a silent
// wrong answer.
//
// In scope are internal/mpi, internal/core, internal/simnet, and any
// package that imports internal/mpi directly. Three checks:
//
//   - error identity via ==/!= between two non-nil errors: wrapped
//     transport errors (every recovery path wraps) never compare equal;
//     use errors.Is or AsRankDead.
//   - string-matching an error: strings.Contains/HasPrefix/HasSuffix/
//     EqualFold or ==/!= on an err.Error() result. Message text is not
//     API; match the typed sentinel instead.
//   - a transport op (Send/Recv/ReduceMerge/Bcast/Barrier/Wait on an
//     internal/mpi type) as a bare expression
//     statement. An explicit `_ =` assignment is the visible opt-out for
//     the rare site that really can ignore the result.
package rankdead

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

const mpiPath = "repro/internal/mpi"

// scopePrefixes are always in scope, importers of internal/mpi besides.
var scopePrefixes = []string{
	"repro/internal/mpi",
	"repro/internal/core",
	"repro/internal/simnet",
}

// transportOps are the mpi methods whose error result is protocol.
var transportOps = map[string]bool{
	"Send": true, "Recv": true, "ReduceMerge": true, "Bcast": true,
	"Barrier": true, "Wait": true,
}

// Analyzer is the rankdead pass.
var Analyzer = &framework.Analyzer{
	Name: "rankdead",
	Doc:  "flags ==/string-matched MPI errors (use AsRankDead/errors.Is) and dropped transport-op errors",
	Run:  run,
}

func run(pass *framework.Pass) (interface{}, error) {
	if !inScope(pass.Pkg) {
		return nil, nil
	}
	pass.WalkStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if !inErrorsIsMethod(stack) {
				checkCompare(pass, n)
			}
		case *ast.CallExpr:
			checkStringMatch(pass, n)
		case *ast.ExprStmt:
			checkDropped(pass, n)
		}
		return true
	})
	return nil, nil
}

// inErrorsIsMethod reports whether the node is inside an
// `Is(error) bool` method — the errors.Is protocol itself, where the ==
// comparison against a sentinel is the sanctioned implementation.
func inErrorsIsMethod(stack []ast.Node) bool {
	for _, n := range stack {
		fn, ok := n.(*ast.FuncDecl)
		if !ok {
			continue
		}
		return fn.Recv != nil && fn.Name.Name == "Is" &&
			fn.Type.Params.NumFields() == 1 && fn.Type.Results.NumFields() == 1
	}
	return false
}

func inScope(pkg *types.Package) bool {
	for _, p := range scopePrefixes {
		if pkg.Path() == p || strings.HasPrefix(pkg.Path(), p+"/") {
			return true
		}
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == mpiPath {
			return true
		}
	}
	return false
}

// checkCompare flags err1 ==/!= err2 between two non-nil error values and
// ==/!= where either side is an err.Error() string.
func checkCompare(pass *framework.Pass, n *ast.BinaryExpr) {
	if n.Op != token.EQL && n.Op != token.NEQ {
		return
	}
	if isErrorString(pass, n.X) || isErrorString(pass, n.Y) {
		pass.Reportf(n.Pos(), "comparing err.Error() text; error messages are not API — match the typed error with errors.Is or mpi.AsRankDead")
		return
	}
	if isErrorValue(pass, n.X) && isErrorValue(pass, n.Y) {
		pass.Reportf(n.Pos(), "comparing errors with %s misses wrapped transport errors; use errors.Is or mpi.AsRankDead", n.Op)
	}
}

// checkStringMatch flags strings.* predicates applied to err.Error().
func checkStringMatch(pass *framework.Pass, call *ast.CallExpr) {
	obj := pass.CalleeObj(call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "strings" {
		return
	}
	switch obj.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorString(pass, arg) {
			pass.Reportf(call.Pos(), "string-matching an error with strings.%s; error messages are not API — match the typed error with errors.Is or mpi.AsRankDead", obj.Name())
			return
		}
	}
}

// checkDropped flags a transport op whose results are discarded entirely.
func checkDropped(pass *framework.Pass, stmt *ast.ExprStmt) {
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !transportOps[sel.Sel.Name] {
		return
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != mpiPath {
		return
	}
	pass.Reportf(stmt.Pos(), "dropped error from %s.%s: a transport op's error carries rank-death; handle it or discard explicitly with _ =", named.Obj().Name(), sel.Sel.Name)
}

// isErrorValue reports whether e has interface type error (and is not the
// nil literal — comparing to nil is fine).
func isErrorValue(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.IsNil() {
		return false
	}
	t := tv.Type
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isErrorString reports whether e is a call of the Error() method on an
// error value.
func isErrorString(pass *framework.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	recv := pass.TypeOf(sel.X)
	if recv == nil {
		return false
	}
	return types.Implements(recv, errorInterface()) || isErrorType(recv)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

var errType = types.Universe.Lookup("error").Type()

func errorInterface() *types.Interface {
	return errType.Underlying().(*types.Interface)
}
