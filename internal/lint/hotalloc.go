package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotPackages lists the packages whose loops are known allocation-bound
// hot paths even without a //lint:hotpath marker: the replay loops the
// profiling work behind BENCH_PR3/BENCH_PR6 keeps finding at the top of
// the allocation profile, the optimiser kernels behind E10, E1 and E18
// (BENCH_PR12) and E11 (BENCH_PR14), and the trace recorder and bus
// coupling count behind every kernel-driven experiment and E5/E6
// (BENCH_PR15). The marker is the preferred mechanism — it travels with
// the package doc — but the list keeps the floor in place if a marker is
// dropped in a refactor.
var hotPackages = []string{
	"internal/cache",
	"internal/trace",
	"internal/partition",
	"internal/memtech",
	"internal/noc",
	"internal/cluster",
	"internal/testcomp",
	"internal/ctg",
	"internal/isa",
	"internal/buscode",
}

// AnalyzerHotalloc flags allocation sources inside the loops of hot
// packages: append to a slice declared without capacity, fmt formatting
// calls, string concatenation, per-iteration make/composite literals,
// interface boxing, and capturing closures. The model loops are
// allocation-bound, not compute-bound (E1 allocates 253 MB for 1.4 s of
// work), so every hidden heap allocation in a replay loop is energy and
// time spent on memory traffic — exactly what the dark-memory argument
// says dominates. Sites are also flagged in functions reachable from a
// loop in the same package (Replay calling Access puts Access's bodies
// on the hot path too). When escape evidence is attached (lpmemlint
// -escape-evidence), findings whose line the compiler proved to
// heap-allocate carry the compiler's message as corroboration.
func AnalyzerHotalloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "flags allocation sources in loops of //lint:hotpath packages (escape evidence when attached)",
		Run:  runHotalloc,
	}
}

// hotPackage reports whether the package is marked hot, by directive or
// by the configured list.
func hotPackage(pkg *Package) bool {
	if pkg.hotpath {
		return true
	}
	for _, h := range hotPackages {
		if pkg.RelPath == h || strings.HasPrefix(pkg.RelPath, h+"/") {
			return true
		}
	}
	return false
}

func runHotalloc(pkg *Package, rep *Reporter) {
	if !hotPackage(pkg) {
		return
	}
	hot := loopCalledFuncs(pkg)
	h := &hotallocPass{pkg: pkg, rep: rep}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			h.declIndex = collectDecls(pkg, fd.Body)
			// A function reachable from a loop is hot throughout.
			h.walkStmts(fd.Body.List, hot[fd.Name.Name])
		}
	}
}

// loopCalledFuncs computes, to a fixpoint, the package-local functions
// whose bodies run on a hot path: anything called from inside a loop,
// plus anything called (anywhere) from such a function. Matching is by
// name — precise enough within one package, and it keeps the analysis
// purely syntactic so it works on packages that fail to type-check.
func loopCalledFuncs(pkg *Package) map[string]bool {
	// callsInLoops[f] / callsAnywhere[f]: names f's body calls from loop /
	// any position.
	inLoops := make(map[string]map[string]bool)
	anywhere := make(map[string]map[string]bool)
	declared := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			declared[name] = true
			il, aw := make(map[string]bool), make(map[string]bool)
			collectCalls(fd.Body, false, il, aw)
			inLoops[name], anywhere[name] = il, aw
		}
	}
	hot := make(map[string]bool)
	for {
		changed := false
		for fn := range declared {
			var callees map[string]bool
			if hot[fn] {
				callees = anywhere[fn] // every call site in a hot function is hot
			} else {
				callees = inLoops[fn]
			}
			for callee := range callees {
				if declared[callee] && !hot[callee] {
					hot[callee] = true
					changed = true
				}
			}
		}
		if !changed {
			return hot
		}
	}
}

// collectCalls records the callee names in a statement tree, split by
// whether the call site sits inside a loop. Function literals reset the
// loop context: a closure body only counts as looped if it loops itself.
func collectCalls(n ast.Node, inLoop bool, loops, anywhere map[string]bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch v := c.(type) {
		case *ast.ForStmt:
			if v.Body != nil {
				collectCalls(v.Body, true, loops, anywhere)
			}
			return false
		case *ast.RangeStmt:
			if v.Body != nil {
				collectCalls(v.Body, true, loops, anywhere)
			}
			return false
		case *ast.FuncLit:
			if v.Body != nil {
				collectCalls(v.Body, false, loops, anywhere)
			}
			return false
		case *ast.CallExpr:
			name := ""
			switch fn := v.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if name != "" {
				anywhere[name] = true
				if inLoop {
					loops[name] = true
				}
			}
		}
		return true
	})
}

// collectDecls maps declared objects to the expression that initialised
// them, so the append check can tell a preallocated slice from a bare
// one. A nil value records a `var x []T` declaration without
// initialiser.
func collectDecls(pkg *Package, body *ast.BlockStmt) map[types.Object]ast.Expr {
	decls := make(map[types.Object]ast.Expr)
	if pkg.Info == nil {
		return decls
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE || len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pkg.Info.Defs[id]; obj != nil {
						decls[obj] = v.Rhs[i]
					}
				}
			}
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					obj := pkg.Info.Defs[id]
					if obj == nil {
						continue
					}
					if i < len(vs.Values) {
						decls[obj] = vs.Values[i]
					} else {
						decls[obj] = nil
					}
				}
			}
		}
		return true
	})
	return decls
}

// hotallocPass walks one function with loop-context tracking.
type hotallocPass struct {
	pkg       *Package
	rep       *Reporter
	declIndex map[types.Object]ast.Expr
}

// walkStmts visits statements, entering loop bodies with hot=true.
// Error-construction exits are exempt: an allocation whose enclosing
// statement is a `return` in a function that returns an error is the
// failure path, cold by definition.
func (h *hotallocPass) walkStmts(stmts []ast.Stmt, hot bool) {
	for _, s := range stmts {
		h.walkStmt(s, hot)
	}
}

func (h *hotallocPass) walkStmt(s ast.Stmt, hot bool) {
	switch v := s.(type) {
	case *ast.ForStmt:
		if v.Init != nil {
			h.walkStmt(v.Init, hot)
		}
		h.walkStmts(v.Body.List, true)
	case *ast.RangeStmt:
		h.checkExpr(v.X, hot)
		h.walkStmts(v.Body.List, true)
	case *ast.BlockStmt:
		h.walkStmts(v.List, hot)
	case *ast.IfStmt:
		if v.Init != nil {
			h.walkStmt(v.Init, hot)
		}
		h.checkExpr(v.Cond, hot)
		h.walkStmts(v.Body.List, hot)
		if v.Else != nil {
			h.walkStmt(v.Else, hot)
		}
	case *ast.SwitchStmt:
		if v.Init != nil {
			h.walkStmt(v.Init, hot)
		}
		if v.Tag != nil {
			h.checkExpr(v.Tag, hot)
		}
		h.walkStmts(v.Body.List, hot)
	case *ast.TypeSwitchStmt:
		h.walkStmts(v.Body.List, hot)
	case *ast.CaseClause:
		h.walkStmts(v.Body, hot)
	case *ast.SelectStmt:
		h.walkStmts(v.Body.List, hot)
	case *ast.CommClause:
		if v.Comm != nil {
			h.walkStmt(v.Comm, hot)
		}
		h.walkStmts(v.Body, hot)
	case *ast.ReturnStmt:
		// return fmt.Errorf(...) and friends: cold failure exits.
		if !h.returnsError(v) {
			for _, e := range v.Results {
				h.checkExpr(e, hot)
			}
		}
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			h.checkExpr(e, hot)
		}
		for _, e := range v.Lhs {
			h.checkExpr(e, hot)
		}
	case *ast.ExprStmt:
		h.checkExpr(v.X, hot)
	case *ast.DeferStmt:
		h.checkExpr(v.Call, hot)
	case *ast.GoStmt:
		h.checkExpr(v.Call, hot)
	case *ast.SendStmt:
		h.checkExpr(v.Value, hot)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						h.checkExpr(val, hot)
					}
				}
			}
		}
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt:
	}
}

// returnsError reports whether any result of the return statement has
// static type error (the cold-exit exemption).
func (h *hotallocPass) returnsError(r *ast.ReturnStmt) bool {
	if h.pkg.Info == nil {
		return false
	}
	for _, e := range r.Results {
		if tv, ok := h.pkg.Info.Types[e]; ok && isErrorTypeT(tv.Type) {
			return true
		}
	}
	return false
}

// checkExpr inspects one expression tree for allocation sources when hot.
func (h *hotallocPass) checkExpr(e ast.Expr, hot bool) {
	h.inspect(e, hot, false)
}

// inspect recursively visits e. concatParent suppresses re-reporting
// every sub-expression of one string-concatenation chain.
func (h *hotallocPass) inspect(e ast.Expr, hot, concatParent bool) {
	switch v := e.(type) {
	case nil:
		return
	case *ast.FuncLit:
		if hot && h.capturesOuter(v) {
			h.report(v.Pos(), "closure capturing outer variables allocates per iteration; hoist it or pass state explicitly")
		}
		// A closure's own allocations count only against its own loops.
		if v.Body != nil {
			saved := h.declIndex
			h.declIndex = collectDecls(h.pkg, v.Body)
			h.walkStmts(v.Body.List, false)
			h.declIndex = saved
		}
		return
	case *ast.BinaryExpr:
		if hot && v.Op == token.ADD && !concatParent && h.isNonConstString(v) {
			h.report(v.Pos(), "string concatenation %s allocates per iteration; use a strings.Builder or preallocated []byte", exprString(v))
			h.inspect(v.X, hot, true)
			h.inspect(v.Y, hot, true)
			return
		}
		h.inspect(v.X, hot, v.Op == token.ADD && concatParent)
		h.inspect(v.Y, hot, v.Op == token.ADD && concatParent)
		return
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if cl, ok := v.X.(*ast.CompositeLit); ok {
				if hot {
					h.report(v.Pos(), "&%s{...} heap-allocates per iteration; reuse a value or hoist it", compositeName(cl))
				}
				for _, el := range cl.Elts {
					h.inspect(el, hot, false)
				}
				return
			}
		}
		h.inspect(v.X, hot, false)
		return
	case *ast.CompositeLit:
		if hot && h.isSliceOrMapLit(v) {
			h.report(v.Pos(), "%s literal allocates per iteration; hoist it out of the loop", compositeName(v))
		}
		for _, el := range v.Elts {
			h.inspect(el, hot, false)
		}
		return
	case *ast.CallExpr:
		h.checkCall(v, hot)
		for _, a := range v.Args {
			h.inspect(a, hot, false)
		}
		h.inspect(v.Fun, hot, false)
		return
	case *ast.ParenExpr:
		h.inspect(v.X, hot, concatParent)
		return
	case *ast.StarExpr:
		h.inspect(v.X, hot, false)
		return
	case *ast.IndexExpr:
		h.inspect(v.X, hot, false)
		h.inspect(v.Index, hot, false)
		return
	case *ast.SliceExpr:
		h.inspect(v.X, hot, false)
		return
	case *ast.SelectorExpr:
		h.inspect(v.X, hot, false)
		return
	case *ast.KeyValueExpr:
		h.inspect(v.Value, hot, false)
		return
	case *ast.TypeAssertExpr:
		h.inspect(v.X, hot, false)
		return
	}
}

// checkCall handles the call-shaped allocation sources: append without
// preallocation, make, fmt formatting, and interface conversions.
func (h *hotallocPass) checkCall(call *ast.CallExpr, hot bool) {
	if !hot {
		return
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		switch fn.Name {
		case "append":
			h.checkAppend(call)
		case "make":
			h.report(call.Pos(), "make inside a hot loop allocates per iteration; hoist the buffer and reuse it")
		}
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok && id.Name == "fmt" && h.isPkg(id, "fmt") {
			switch fn.Sel.Name {
			case "Sprintf", "Sprint", "Sprintln", "Errorf", "Fprintf", "Fprint", "Fprintln", "Appendf":
				h.report(call.Pos(), "fmt.%s in a hot loop allocates (argument boxing + formatting) per iteration; use strconv.Append* into a reused buffer", fn.Sel.Name)
			}
		}
	}
	// Explicit conversion to an interface type boxes the operand.
	if h.pkg.Info != nil && len(call.Args) == 1 {
		if tv, ok := h.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
				if atv, ok := h.pkg.Info.Types[call.Args[0]]; ok && atv.Type != nil {
					if _, argIface := atv.Type.Underlying().(*types.Interface); !argIface {
						h.report(call.Pos(), "conversion of %s to an interface boxes it per iteration", exprString(call.Args[0]))
					}
				}
			}
		}
	}
}

// checkAppend flags append to a slice declared in this function without
// a capacity. Targets whose declaration is unknown (fields, parameters,
// package variables) are skipped: their preallocation cannot be judged
// locally.
func (h *hotallocPass) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 || h.pkg.Info == nil {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := h.pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	decl, known := h.declIndex[obj]
	if !known {
		return
	}
	if h.preallocated(decl) {
		return
	}
	h.report(call.Pos(), "append to %s grows an unpreallocated slice per iteration; size it up front (make with capacity)", id.Name)
}

// preallocated reports whether a declaration expression reserves
// capacity: make with an explicit capacity (or a non-zero length), a
// non-empty literal, or any call (assumed to size its result).
func (h *hotallocPass) preallocated(decl ast.Expr) bool {
	switch v := decl.(type) {
	case nil:
		return false // var x []T
	case *ast.CompositeLit:
		return len(v.Elts) > 0
	case *ast.CallExpr:
		id, ok := v.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return true // constructor call; assume it sized the result
		}
		if len(v.Args) >= 3 {
			return true // make(T, len, cap)
		}
		if len(v.Args) == 2 {
			return !h.isZeroLit(v.Args[1]) // make(T, n) preallocates unless n == 0
		}
		return false
	}
	return true
}

func (h *hotallocPass) isZeroLit(e ast.Expr) bool {
	tv, ok := h.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

func (h *hotallocPass) isNonConstString(be *ast.BinaryExpr) bool {
	if h.pkg.Info == nil {
		return false
	}
	tv, ok := h.pkg.Info.Types[be]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (h *hotallocPass) isSliceOrMapLit(cl *ast.CompositeLit) bool {
	if h.pkg.Info != nil {
		if tv, ok := h.pkg.Info.Types[cl]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				return true
			}
			return false
		}
	}
	switch cl.Type.(type) {
	case *ast.ArrayType, *ast.MapType:
		return true
	}
	return false
}

func (h *hotallocPass) isPkg(id *ast.Ident, path string) bool {
	if h.pkg.Info == nil {
		return true
	}
	obj := h.pkg.Info.Uses[id]
	if obj == nil {
		return true
	}
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// capturesOuter reports whether the closure references a variable
// declared outside its own body — the case where each evaluation
// allocates a closure object. A literal with no captures compiles to a
// static function value and is free.
func (h *hotallocPass) capturesOuter(fl *ast.FuncLit) bool {
	if h.pkg.Info == nil {
		return true
	}
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj := h.pkg.Info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Declared before the literal and outside it: a capture. Package
		// globals don't count — referencing them needs no closure.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < fl.Pos() {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// report emits the finding, appending compiler escape evidence when the
// attached index has a heap message for the same line.
func (h *hotallocPass) report(pos token.Pos, format string, args ...interface{}) {
	p := h.pkg.Fset.Position(pos)
	evidence := ""
	if h.pkg.Escape != nil {
		if msgs := h.pkg.Escape.At(p.Filename, p.Line); len(msgs) > 0 {
			evidence = msgs[0]
		}
	}
	h.rep.ReportEvidence(pos, evidence, format, args...)
}

// compositeName renders the literal's type for diagnostics.
func compositeName(cl *ast.CompositeLit) string {
	if cl.Type == nil {
		return "composite"
	}
	switch t := cl.Type.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t)
	case *ast.ArrayType:
		return "slice"
	case *ast.MapType:
		return "map"
	}
	return "composite"
}
