package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"gpupower/internal/lint"
)

// Per-method mutation summaries for disjointwrite.
//
// The per-closure dataflow sees direct writes (t.rows[i] = v) but not the
// same write hidden one call deep (t.Set(i, v)). This file summarizes, per
// *types.Func, whether calling the method provably mutates memory reachable
// through its receiver: a write whose lvalue chain reaches the receiver
// (through a pointer receiver, or through an alias-capable step — index,
// deref — on a value receiver), or a transitive call to another in-module
// receiver method that does. Methods without syntax (stdlib, interfaces,
// foreign packages) and recursion cycles summarize to "not provably
// mutating": the check stays strictly under-approximate, so every report is
// a real receiver mutation.
//
// The store follows the unit-facts discipline (see unitfacts.go): the
// run-scoped lint.FactStore carried by the Pass, keyed by object identity
// (sound because each run's Loader type-checks each package exactly once,
// and the store does not outlive that Loader's type graph). A summary
// computed under an in-progress-cycle assumption is tainted and never
// memoized, keeping store contents independent of analysis order.
type mutFactKey struct{ fn *types.Func }

func cachedMutFact(pass *lint.Pass, fn *types.Func) (bool, bool) {
	v, ok := pass.Facts().Load(mutFactKey{fn})
	if !ok {
		return false, false
	}
	return v.(bool), true
}

func storeMutFact(pass *lint.Pass, fn *types.Func, v bool) {
	pass.Facts().Store(mutFactKey{fn}, v)
}

// methodMutates reports whether calling fn provably mutates memory reachable
// through its receiver. chain carries the in-progress summaries of the
// current derivation (nil at the top level); the second result is the taint
// flag — true when the verdict leaned on an in-progress assumption and must
// not be memoized by the caller.
func methodMutates(pass *lint.Pass, fn *types.Func, chain map[*types.Func]bool) (bool, bool) {
	if v, ok := cachedMutFact(pass, fn); ok {
		return v, false
	}
	if chain[fn] {
		// Recursive or mutually-recursive method chain: assume the in-progress
		// frame settles it, and poison memoization upward.
		return false, true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		storeMutFact(pass, fn, false)
		return false, false
	}
	fd, declPass := funcDeclOf(pass, fn)
	if fd == nil || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		// No syntax (stdlib, cgo, foreign module): not provably mutating.
		storeMutFact(pass, fn, false)
		return false, false
	}
	recvField := fd.Recv.List[0]
	if len(recvField.Names) == 0 || recvField.Names[0].Name == "_" {
		// An unnamed receiver cannot be written through.
		storeMutFact(pass, fn, false)
		return false, false
	}
	recvObj := declPass.Info.Defs[recvField.Names[0]]
	if recvObj == nil {
		storeMutFact(pass, fn, false)
		return false, false
	}
	_, ptrRecv := sig.Recv().Type().Underlying().(*types.Pointer)

	sub := make(map[*types.Func]bool, len(chain)+1)
	for f := range chain {
		sub[f] = true
	}
	sub[fn] = true

	mutates := false
	tainted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if mutates {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			// A nested literal may escape the call; stay under-approximate.
			return false
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if writesThroughReceiver(declPass.Info, lhs, recvObj, ptrRecv) {
					mutates = true
				}
			}
		case *ast.IncDecStmt:
			if writesThroughReceiver(declPass.Info, st.X, recvObj, ptrRecv) {
				mutates = true
			}
		case *ast.CallExpr:
			callee := calleeFunc(declPass.Info, st)
			if callee == nil || callee == fn {
				return true
			}
			sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if exprBaseObj(declPass.Info, sel.X) != recvObj {
				return true
			}
			m, t := methodMutates(declPass, callee, sub)
			if t {
				tainted = true
			}
			if m {
				mutates = true
			}
		}
		return true
	})
	if tainted && !mutates {
		// The "no mutation" verdict leaned on a cycle assumption; don't cache.
		return false, true
	}
	storeMutFact(pass, fn, mutates)
	return mutates, false
}

// writesThroughReceiver reports whether the written lvalue reaches memory
// shared with the caller via the receiver: any chain rooted at the receiver
// for a pointer receiver, or a chain containing an index/deref step for a
// value receiver (writing t.m[k] mutates the shared map even though t is a
// copy; writing t.x does not).
func writesThroughReceiver(info *types.Info, lhs ast.Expr, recvObj types.Object, ptrRecv bool) bool {
	sawIndirect := false
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			sawIndirect = true
			e = x.X
		case *ast.StarExpr:
			sawIndirect = true
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			if identObj(info, x) != recvObj {
				return false
			}
			return ptrRecv || sawIndirect
		default:
			return false
		}
	}
}

// exprBaseObj walks a receiver expression (t, t.field, (*t).field, rows[i])
// down to its base identifier's object, or nil.
func exprBaseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return identObj(info, x)
		default:
			return nil
		}
	}
}
