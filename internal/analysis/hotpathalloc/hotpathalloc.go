// Package hotpathalloc is the static complement of
// TestSampleSteadyStateZeroAlloc: functions annotated with a //bc:hotpath
// directive (the four workload sampling kernels, SampleInto, and
// StateFrame.Bump) must not contain allocation-introducing constructs.
// The runtime test proves the steady state is allocation-free on one
// compiler version; this pass rejects the constructs that would make it
// allocate — or make it depend on escape analysis staying lucky — before
// the code ever runs.
//
// Flagged inside a //bc:hotpath function body:
//
//   - make, new
//   - slice, map, and &composite literals
//   - append, unless it feeds its own slice back (x = append(x, ...)) or
//     appends onto a reslice (append(buf[:0], ...)) — the pooled-buffer
//     idioms the samplers use
//   - func literals (closures capture and may heap-allocate)
//   - go statements
//   - calls into fmt, and errors.New
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions
//   - passing a non-interface value to an interface parameter (boxing);
//     panic is exempt, being the cold path by definition
//
// The check is intraprocedural: helpers a hot function calls must carry
// their own //bc:hotpath annotation to be checked.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Directive is the annotation that opts a function into the check.
const Directive = "hotpath"

// Analyzer is the hotpathalloc pass.
var Analyzer = &framework.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags allocation-introducing constructs in //bc:hotpath functions",
	Run:  run,
}

func run(pass *framework.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.FuncHasDirective(f, fn, Directive) {
				checkBody(pass, fn)
			}
		}
	}
	return nil, nil
}

func checkBody(pass *framework.Pass, fn *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "hotpath: %s literal allocates", kindName(pass.TypeOf(n)))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hotpath: &composite literal allocates")
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hotpath: func literal may heap-allocate its closure; hoist it to a method")
			return false // don't double-report its body
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath: go statement allocates a goroutine")
		case *ast.BinaryExpr:
			checkConcat(pass, n)
		case *ast.CallExpr:
			checkCall(pass, n, stack)
		}
		stack = append(stack, n)
		return true
	})
}

// checkConcat flags non-constant string concatenation.
func checkConcat(pass *framework.Pass, n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	tv, ok := pass.TypesInfo.Types[n]
	if !ok || tv.Value != nil { // constant-folded: no runtime alloc
		return
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		pass.Reportf(n.Pos(), "hotpath: non-constant string concatenation allocates")
	}
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node) {
	// Type conversions that copy: string([]byte), []byte(s), []rune(s).
	if fun, ok := pass.TypesInfo.Types[call.Fun]; ok && fun.IsType() {
		if convAllocates(fun.Type, pass.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "hotpath: %s conversion copies and allocates", types.TypeString(fun.Type, nil))
		}
		return
	}

	if obj := pass.CalleeObj(call); obj != nil {
		switch obj := obj.(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "hotpath: %s allocates; hoist the buffer into the sampler and reuse it", obj.Name())
			case "append":
				checkAppend(pass, call, stack)
			}
			return
		default:
			if pkg := obj.Pkg(); pkg != nil {
				if pkg.Path() == "fmt" {
					pass.Reportf(call.Pos(), "hotpath: fmt.%s allocates (boxing + formatting)", obj.Name())
				}
				if pkg.Path() == "errors" && obj.Name() == "New" {
					pass.Reportf(call.Pos(), "hotpath: errors.New allocates; use a package-level sentinel")
				}
			}
		}
	}

	checkBoxing(pass, call)
}

// checkAppend allows the two pooled-buffer idioms and flags everything
// else: append(buf[:0], ...) reuses backing, and x = append(x, ...) grows
// a preallocated slice in place in the steady state.
func checkAppend(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	arg0 := ast.Unparen(call.Args[0])
	if _, ok := arg0.(*ast.SliceExpr); ok {
		return
	}
	if assign := enclosingAssign(stack, call); assign != nil && len(assign.Lhs) == 1 {
		if types.ExprString(assign.Lhs[0]) == types.ExprString(arg0) {
			return
		}
	}
	pass.Reportf(call.Pos(), "hotpath: append that does not feed its own slice back (x = append(x, ...)) may allocate a new backing array")
}

// enclosingAssign returns the assignment whose sole RHS is call, if any.
func enclosingAssign(stack []ast.Node, call *ast.CallExpr) *ast.AssignStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && ast.Unparen(n.Rhs[0]) == call {
				return n
			}
			return nil
		case *ast.ParenExpr:
			continue
		default:
			return nil
		}
	}
	return nil
}

// checkBoxing flags non-interface values passed to interface parameters.
func checkBoxing(pass *framework.Pass, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return // cold path by definition
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case call.Ellipsis.IsValid() && i == len(call.Args)-1:
			continue // f(xs...) passes the slice through, no boxing
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "hotpath: passing %s to an interface parameter boxes the value", types.TypeString(at, nil))
	}
}

func convAllocates(to, from types.Type) bool {
	if from == nil {
		return false
	}
	toStr := isString(to)
	fromStr := isString(from)
	toBytes := isByteOrRuneSlice(to)
	fromBytes := isByteOrRuneSlice(from)
	return (toStr && fromBytes) || (toBytes && fromStr)
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
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
