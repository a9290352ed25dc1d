package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CaptureBody mechanizes the PR 3 zero-alloc contract on the par package's
// explicit-context loop helpers: the whole point of the ...Ctx forms is that
// the loop body is a CAPTURELESS function with state threaded through the
// ctx parameter. A capturing closure (or a bound method value) passed as the
// body defeats that — the body parameter escapes into the worker goroutines,
// so the closure is heap-allocated at every call, silently reintroducing the
// per-call allocations the Engine refactor removed. The allocation gates
// only catch this after the fact, on the specific code paths they cover;
// this analyzer catches it at the call site, on every path.
var CaptureBody = &Analyzer{
	Name: "capturebody",
	Doc: "flag capturing closures passed as bodies of par.ForChunkCtx-family helpers\n\n" +
		"Function-typed arguments of ForChunkCtx, ForChunkWorkerCtx, ForChunkPrefixCtx,\n" +
		"ForStaticCtx, ForStagesCtx, SumFloat64Ctx, MaxInt64Ctx and MaxFloat64Ctx must be\n" +
		"package-level functions or captureless literals; anything that captures variables\n" +
		"or binds a receiver heap-allocates on every call (the body escapes into worker\n" +
		"goroutines), violating the zero-alloc warm-run contract.",
	Run: runCaptureBody,
}

// ctxHelpers are the par functions whose func-typed arguments must be
// captureless. The map value is unused; membership is the contract.
var ctxHelpers = map[string]bool{
	"ForChunkCtx":       true,
	"ForChunkWorkerCtx": true,
	"ForChunkPrefixCtx": true,
	"ForStaticCtx":      true,
	"ForStagesCtx":      true,
	"SumFloat64Ctx":     true,
	"MaxInt64Ctx":       true,
	"MaxFloat64Ctx":     true,
}

// parPackage reports whether path is the repository's par package (the real
// module path, or the fixture copy anatest loads).
func parPackage(path string) bool {
	return path == "internal/par" || strings.HasSuffix(path, "/internal/par")
}

func runCaptureBody(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() == nil ||
				!parPackage(callee.Pkg().Path()) || !ctxHelpers[callee.Name()] {
				return true
			}
			for _, arg := range call.Args {
				t := pass.TypesInfo.Types[arg].Type
				if t == nil {
					continue
				}
				if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
					continue
				}
				checkBodyArg(pass, callee.Name(), arg)
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call's static callee, seeing through selectors
// (par.ForChunkCtx) and generic instantiation.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	if idx, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation f[T](...)
		fun = idx.X
	}
	var id *ast.Ident
	switch e := fun.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkBodyArg validates one func-typed argument of a ...Ctx helper.
func checkBodyArg(pass *Pass, helper string, arg ast.Expr) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if caps := capturedVars(pass, e); len(caps) > 0 {
			pass.Reportf(arg.Pos(),
				"func literal passed to par.%s captures %s; the body must be a captureless package-level function (state goes through the ctx parameter), or the closure heap-allocates on every call",
				helper, strings.Join(caps, ", "))
		}
	case *ast.SelectorExpr:
		// A method VALUE (st.decide) binds its receiver: an allocation per
		// evaluation, same pathology as a capturing closure. A package
		// selector (pkg.Fn) is fine.
		if sel := pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.MethodVal {
			pass.Reportf(arg.Pos(),
				"method value %s passed to par.%s binds its receiver (allocates per call); pass a package-level function taking the receiver through the ctx parameter",
				exprString(e), helper)
		}
	}
}

// capturedVars returns the names of variables a func literal captures from
// an enclosing function scope, sorted and deduplicated. References to
// package-level objects and to the literal's own parameters/locals are not
// captures.
func capturedVars(pass *Pass, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		scope := v.Parent()
		if scope == nil || scope == types.Universe || scope == pass.Pkg.Scope() {
			return true
		}
		// Declared inside the literal (params or locals) => not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}
