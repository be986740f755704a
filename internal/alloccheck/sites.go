package alloccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gpupower/internal/lint"
)

// Category classifies an allocation site. The taxonomy is deliberately
// conservative: every construct that *may* allocate under some compilation of
// the function is a site, even when escape analysis would keep a particular
// instance on the stack. A proof of allocation-freedom must survive the
// worst case; the dynamic AllocsPerRun tests remain the measurement oracle
// for what the compiler actually does (DESIGN.md §13).
type Category string

const (
	// CatMake is a make() of a slice, map, or channel.
	CatMake Category = "make"
	// CatNew is a new(T).
	CatNew Category = "new"
	// CatAppend is any append: the checker cannot prove capacity headroom,
	// so every append is a potential grow-and-copy.
	CatAppend Category = "append"
	// CatComposite is an escaping composite literal: &T{...}, or a slice or
	// map literal (which always materializes backing storage).
	CatComposite Category = "composite"
	// CatMapInsert is an assignment through a map index expression.
	CatMapInsert Category = "map-insert"
	// CatStringConcat is string concatenation via + or +=.
	CatStringConcat Category = "string-concat"
	// CatStringConv is an allocating string conversion
	// (string<->[]byte/[]rune, string(int)).
	CatStringConv Category = "string-conv"
	// CatIfaceBox is a conversion of a non-pointer concrete value into an
	// interface, which boxes the value on the heap.
	CatIfaceBox Category = "iface-box"
	// CatClosure is a func literal that captures variables, or a bound
	// method value; both materialize a closure object.
	CatClosure Category = "closure"
	// CatVariadic is a call that materializes an implicit []T for a
	// variadic parameter.
	CatVariadic Category = "variadic"
	// CatDeferLoop is a defer inside a loop (heap-allocated defer record;
	// a function-level defer is open-coded and free).
	CatDeferLoop Category = "defer-loop"
	// CatChan is a channel operation (send, receive, select, range).
	CatChan Category = "chan"
	// CatGo is a go statement (new goroutine: stack + defer structures).
	CatGo Category = "go"
	// CatFormat is a call into fmt, errors, or strconv formatting, which
	// allocates its result (and boxes its operands).
	CatFormat Category = "format"
	// CatExtern is a call to a function outside the module that is not on
	// the allocation-free allowlist; the checker has no body to walk and
	// assumes the worst.
	CatExtern Category = "extern-call"
	// CatDynamic is a call through an interface method or a func value;
	// the callee is unresolvable statically and assumed to allocate.
	CatDynamic Category = "dynamic-call"
	// CatCall is a call to an in-module function that is itself not proven
	// allocation-free; Underlying chains to the callee's first finding.
	CatCall Category = "call"
)

// Site is one potential allocation, resolved to a stable source position.
type Site struct {
	Cat Category       `json:"category"`
	Pos token.Position `json:"-"`
	Msg string         `json:"message"`
	// Callee is the full name of the called function for call-shaped
	// categories (call, extern-call, dynamic-call, format).
	Callee string `json:"callee,omitempty"`
	// Underlying is the callee's first finding for CatCall sites: the
	// next hop of the propagation chain down to a direct site.
	Underlying *Site `json:"underlying,omitempty"`
}

// callEdge is a statically-resolved call to an in-module function.
type callEdge struct {
	pos   token.Position
	fn    *types.Func // Origin() of the callee
	name  string
	hatch *hatch // covering //gpower:allocs directive, if any
}

// siteCollector walks one function body and records direct allocation
// sites plus in-module call edges. It is purely intra-procedural.
type siteCollector struct {
	pkg     *lint.Package
	units   map[*types.Func]*funcUnit
	modPath string
	decl    *ast.FuncDecl

	sites []Site
	calls []callEdge

	// callFuns marks expressions in call-operand position so method-value
	// selectors used as calls are not double-flagged as bound closures.
	callFuns map[ast.Expr]bool
}

func collectSites(pkg *lint.Package, units map[*types.Func]*funcUnit, modPath string, decl *ast.FuncDecl) ([]Site, []callEdge) {
	sc := &siteCollector{
		pkg:      pkg,
		units:    units,
		modPath:  modPath,
		decl:     decl,
		callFuns: make(map[ast.Expr]bool),
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			sc.callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	sc.walk(decl.Body, 0)
	return sc.sites, sc.calls
}

func (sc *siteCollector) pos(p token.Pos) token.Position { return sc.pkg.Fset.Position(p) }

func (sc *siteCollector) add(p token.Pos, cat Category, format string, args ...any) {
	sc.sites = append(sc.sites, Site{Cat: cat, Pos: sc.pos(p), Msg: fmt.Sprintf(format, args...)})
}

func (sc *siteCollector) addCall(p token.Pos, cat Category, callee, format string, args ...any) {
	sc.sites = append(sc.sites, Site{Cat: cat, Pos: sc.pos(p), Callee: callee, Msg: fmt.Sprintf(format, args...)})
}

func (sc *siteCollector) typeOf(e ast.Expr) types.Type { return sc.pkg.Info.TypeOf(e) }

func (sc *siteCollector) qual() types.Qualifier { return types.RelativeTo(sc.pkg.Types) }

// walk recurses manually so loop depth (for defer-in-loop detection) is
// tracked without a node stack.
func (sc *siteCollector) walk(n ast.Node, loopDepth int) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ForStmt:
		sc.walk(n.Init, loopDepth)
		sc.walk(n.Cond, loopDepth)
		sc.walk(n.Post, loopDepth)
		sc.walk(n.Body, loopDepth+1)
		return
	case *ast.RangeStmt:
		if t := sc.typeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				sc.add(n.Pos(), CatChan, "range over a channel")
			}
		}
		sc.walk(n.X, loopDepth)
		sc.walk(n.Body, loopDepth+1)
		return
	case *ast.DeferStmt:
		if loopDepth > 0 {
			sc.add(n.Pos(), CatDeferLoop, "defer inside a loop heap-allocates its record each iteration")
		}
		sc.walk(n.Call, loopDepth)
		return
	case *ast.GoStmt:
		sc.add(n.Pos(), CatGo, "go statement spawns a goroutine")
		sc.walk(n.Call, loopDepth)
		return
	case *ast.SendStmt:
		sc.add(n.Pos(), CatChan, "channel send")
	case *ast.SelectStmt:
		sc.add(n.Pos(), CatChan, "select over channel operations")
	case *ast.UnaryExpr:
		switch n.Op {
		case token.ARROW:
			sc.add(n.Pos(), CatChan, "channel receive")
		case token.AND:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				sc.add(n.Pos(), CatComposite, "&%s{...} escapes to the heap (conservatively assumed)",
					types.TypeString(sc.typeOf(lit), sc.qual()))
			}
		}
	case *ast.CompositeLit:
		if t := sc.typeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				sc.add(n.Pos(), CatComposite, "slice literal allocates its backing array")
			case *types.Map:
				sc.add(n.Pos(), CatComposite, "map literal allocates the map")
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(sc.typeOf(n)) {
			sc.add(n.Pos(), CatStringConcat, "string concatenation allocates the result")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(sc.typeOf(n.Lhs[0])) {
			sc.add(n.Pos(), CatStringConcat, "string += allocates the result")
		}
		for _, lhs := range n.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if t := sc.typeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						sc.add(lhs.Pos(), CatMapInsert, "map insert may grow the bucket array")
					}
				}
			}
		}
		if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				sc.checkBox(n.Rhs[i], sc.typeOf(n.Lhs[i]), "assignment")
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil && len(n.Values) == len(n.Names) {
			dst := sc.typeOf(n.Type)
			for _, v := range n.Values {
				sc.checkBox(v, dst, "declaration")
			}
		}
	case *ast.ReturnStmt:
		sc.checkReturnBox(n)
	case *ast.FuncLit:
		if sc.captures(n) {
			sc.add(n.Pos(), CatClosure, "func literal captures variables: the closure escapes conservatively")
		}
		// The body is still walked: allocations inside run when the
		// closure is invoked, and hot paths invoke what they build.
	case *ast.SelectorExpr:
		if !sc.callFuns[ast.Expr(n)] {
			if sel, ok := sc.pkg.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				sc.add(n.Pos(), CatClosure, "bound method value %s.%s allocates a closure",
					types.TypeString(sel.Recv(), sc.qual()), sel.Obj().Name())
			}
		}
	case *ast.CallExpr:
		sc.checkCall(n)
	}
	// Generic recursion over children for everything not returned above.
	sc.walkChildren(n, loopDepth)
}

// walkChildren recurses into n's children at the given loop depth, using
// ast.Inspect one level deep.
func (sc *siteCollector) walkChildren(n ast.Node, loopDepth int) {
	first := true
	ast.Inspect(n, func(child ast.Node) bool {
		if first {
			first = false
			return true // n itself
		}
		if child == nil {
			return false
		}
		sc.walk(child, loopDepth)
		return false // sc.walk already recursed
	})
}

// checkCall classifies one call expression: builtin, conversion, static
// (allowlisted / format / in-module edge / extern), or dynamic.
func (sc *siteCollector) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	tv, ok := sc.pkg.Info.Types[call.Fun]
	if !ok {
		sc.add(call.Pos(), CatExtern, "call with no type information: assumed to allocate")
		return
	}
	if tv.IsType() {
		sc.checkConversion(call)
		return
	}
	if tv.IsBuiltin() {
		sc.checkBuiltin(call, fun)
		return
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := sc.pkg.Info.Uses[f].(type) {
		case *types.Func:
			sc.checkStaticCall(call, obj)
		case *types.Var:
			sc.addCall(call.Pos(), CatDynamic, f.Name,
				"call through func value %s: callee unresolvable, assumed to allocate", f.Name)
		default:
			sc.addCall(call.Pos(), CatDynamic, f.Name,
				"unresolvable call to %s: assumed to allocate", f.Name)
		}
	case *ast.SelectorExpr:
		if sel, ok := sc.pkg.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					sc.addCall(call.Pos(), CatDynamic, sel.Obj().Name(),
						"interface method call %s.%s: dynamic dispatch, assumed to allocate",
						types.TypeString(sel.Recv(), sc.qual()), sel.Obj().Name())
					return
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					sc.checkStaticCall(call, fn)
					return
				}
			case types.FieldVal:
				sc.addCall(call.Pos(), CatDynamic, f.Sel.Name,
					"call through func-valued field %s: assumed to allocate", f.Sel.Name)
				return
			}
			sc.addCall(call.Pos(), CatDynamic, f.Sel.Name,
				"unresolvable method expression call: assumed to allocate")
			return
		}
		// Package-qualified call: pkg.F(...).
		if fn, ok := sc.pkg.Info.Uses[f.Sel].(*types.Func); ok {
			sc.checkStaticCall(call, fn)
			return
		}
		if _, ok := sc.pkg.Info.Uses[f.Sel].(*types.Var); ok {
			sc.addCall(call.Pos(), CatDynamic, f.Sel.Name,
				"call through package-level func value %s: assumed to allocate", f.Sel.Name)
			return
		}
		sc.addCall(call.Pos(), CatExtern, f.Sel.Name,
			"unresolvable call to %s: assumed to allocate", f.Sel.Name)
	case *ast.FuncLit:
		// Immediately-invoked literal: the body was walked where it
		// appears; the call adds nothing beyond the literal's own sites.
	default:
		sc.add(call.Pos(), CatDynamic, "call through computed function expression: assumed to allocate")
	}
}

func (sc *siteCollector) checkStaticCall(call *ast.CallExpr, fn *types.Func) {
	orig := fn.Origin()
	if allowlisted(orig) {
		return
	}
	name := orig.FullName()
	if pkg := orig.Pkg(); pkg != nil && formatPackage(pkg.Path()) {
		sc.addCall(call.Pos(), CatFormat, name, "call to %s may allocate (formatting package)", name)
		return
	}
	if _, inModule := sc.units[orig]; inModule {
		sc.calls = append(sc.calls, callEdge{pos: sc.pos(call.Pos()), fn: orig, name: name})
		sc.checkVariadic(call, name)
		sc.checkArgBoxing(call)
		return
	}
	if pkg := orig.Pkg(); pkg != nil && sc.modPath != "" &&
		(pkg.Path() == sc.modPath || strings.HasPrefix(pkg.Path(), sc.modPath+"/")) {
		// The callee is in-module but has no body here to walk (a
		// bodyless declaration, or a package outside the analyzed set):
		// conservatively unproven.
		sc.addCall(call.Pos(), CatCall, name,
			"call to %s: in-module but outside the analyzed packages", name)
		return
	}
	sc.addCall(call.Pos(), CatExtern, name,
		"call to %s: outside the module and not on the allocation-free allowlist", name)
}

// checkVariadic flags the implicit []T materialized when a variadic callee
// receives one or more loose arguments (a spread call reuses the caller's
// slice and is free).
func (sc *siteCollector) checkVariadic(call *ast.CallExpr, name string) {
	sig, ok := sc.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return
	}
	if len(call.Args) >= sig.Params().Len() {
		sc.addCall(call.Pos(), CatVariadic, name,
			"variadic call to %s materializes an implicit slice for its trailing arguments", name)
	}
}

// checkArgBoxing flags concrete non-pointer arguments passed to interface
// parameters of statically-resolved in-module calls.
func (sc *siteCollector) checkArgBoxing(call *ast.CallExpr) {
	sig, ok := sc.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt != nil {
			sc.checkBox(arg, pt, "argument")
		}
	}
}

func (sc *siteCollector) checkReturnBox(ret *ast.ReturnStmt) {
	sig := sc.enclosingSignature(ret)
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return // naked return or multi-value forwarding: no conversion here
	}
	for i, res := range ret.Results {
		sc.checkBox(res, sig.Results().At(i).Type(), "return")
	}
}

// enclosingSignature finds the signature governing a return statement: the
// innermost func literal containing it, else the declared function.
func (sc *siteCollector) enclosingSignature(ret *ast.ReturnStmt) *types.Signature {
	var innermost *ast.FuncLit
	ast.Inspect(sc.decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if lit.Pos() <= ret.Pos() && ret.End() <= lit.End() {
				innermost = lit // keep descending: deeper literals win
			}
		}
		return true
	})
	if innermost != nil {
		if sig, ok := sc.typeOf(innermost).(*types.Signature); ok {
			return sig
		}
		return nil
	}
	if fn, ok := sc.pkg.Info.Defs[sc.decl.Name].(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		return sig
	}
	return nil
}

// checkBox flags src converting into interface type dst when src's static
// type is a concrete non-pointer-shaped value.
func (sc *siteCollector) checkBox(src ast.Expr, dst types.Type, context string) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := sc.pkg.Info.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	st := tv.Type
	if st == types.Typ[types.UntypedNil] {
		return
	}
	if _, isIface := st.Underlying().(*types.Interface); isIface {
		return // interface-to-interface carries the existing box
	}
	if pointerShaped(st) {
		return // the value fits the interface data word: no heap copy
	}
	sc.add(src.Pos(), CatIfaceBox, "%s boxes %s into %s",
		context, types.TypeString(st, sc.qual()), types.TypeString(dst, sc.qual()))
}

func (sc *siteCollector) checkBuiltin(call *ast.CallExpr, fun ast.Expr) {
	name := ""
	switch f := fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name // unsafe.Sizeof etc.
	}
	switch name {
	case "make":
		sc.add(call.Pos(), CatMake, "make(%s) allocates", types.TypeString(sc.typeOf(call), sc.qual()))
	case "new":
		sc.add(call.Pos(), CatNew, "new(%s) allocates", types.TypeString(sc.typeOf(call), sc.qual()))
	case "append":
		sc.add(call.Pos(), CatAppend, "append may grow the backing array")
	case "print", "println":
		sc.add(call.Pos(), CatFormat, "builtin %s formats its operands", name)
	case "panic":
		// The panic record itself ends the steady state; only the
		// operand boxing is a live concern.
		if len(call.Args) == 1 {
			sc.checkBox(call.Args[0], types.NewInterfaceType(nil, nil), "panic operand")
		}
	}
	// len/cap/copy/delete/clear/min/max/real/imag/complex/recover: free.
}

// captures reports whether a func literal references any variable declared
// in the enclosing function (parameters, receiver, or locals outside the
// literal). Non-capturing literals compile to static functions.
func (sc *siteCollector) captures(lit *ast.FuncLit) bool {
	declStart, declEnd := sc.decl.Pos(), sc.decl.End()
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := sc.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		p := v.Pos()
		if p >= declStart && p < declEnd && !(p >= lit.Pos() && p < lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

func (sc *siteCollector) checkConversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := sc.typeOf(call)
	arg := call.Args[0]
	src := sc.typeOf(arg)
	if dst == nil || src == nil {
		return
	}
	if tv, ok := sc.pkg.Info.Types[arg]; ok && tv.Value != nil {
		return // constant-folded conversion
	}
	du, su := dst.Underlying(), src.Underlying()
	if _, isIface := du.(*types.Interface); isIface {
		sc.checkBox(arg, dst, "conversion")
		return
	}
	switch {
	case isString(dst) && (isByteOrRuneSlice(su) || isInteger(su)):
		sc.add(call.Pos(), CatStringConv, "conversion %s -> string allocates",
			types.TypeString(src, sc.qual()))
	case isByteOrRuneSlice(du) && isString(src):
		sc.add(call.Pos(), CatStringConv, "conversion string -> %s allocates",
			types.TypeString(dst, sc.qual()))
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInteger(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// pointerShaped reports whether boxing t into an interface reuses the value
// as the interface data word instead of heap-copying it.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// allowlisted names the external functions the checker trusts not to
// allocate: pure math, atomic loads/stores/CAS, mutex lock operations, and
// a handful of runtime reads. Everything else outside the module is
// conservatively assumed to allocate.
func allowlisted(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math", "math/bits", "sync/atomic":
		return true
	case "runtime":
		return fn.Name() == "GOMAXPROCS" || fn.Name() == "NumCPU" || fn.Name() == "Gosched"
	case "time":
		switch fn.Name() {
		case "Seconds", "Milliseconds", "Microseconds", "Nanoseconds", "Since":
			return true
		}
		return false
	case "sync":
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return false
		}
		if recv := sig.Recv(); recv != nil {
			rt := recv.Type().String()
			if strings.Contains(rt, "Mutex") {
				switch fn.Name() {
				case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
					return true
				}
			}
		}
		return false
	}
	return false
}

// formatPackage reports whether path is one of the formatting packages the
// taxonomy calls out explicitly: every call into them allocates.
func formatPackage(path string) bool {
	switch path {
	case "fmt", "errors", "strconv":
		return true
	}
	return false
}
