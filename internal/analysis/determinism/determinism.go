// Package determinism mechanizes the engine packages' determinism
// contract: for a fixed seed, History(), the mapping, and the overlay
// must be byte-identical run to run — that is what every differential
// oracle and the crash-recovery replay are built on.
//
// In internal/core, internal/graph, internal/congest and
// internal/pcycle it forbids:
//
//   - time.Now / time.Since / time.Until — wall-clock reads;
//   - the process-global math/rand top-level functions (rand.Intn and
//     friends; rand.New(rand.NewSource(seed)) is the sanctioned form);
//   - `range` over a map whose body lets the iteration order escape:
//     drawing from a *rand.Rand, calling a stored callback (observer
//     fields — event order would become iteration-order dependent),
//     appending to or plainly assigning a loop-derived value into
//     state that outlives the loop, non-commutative accumulation
//     (floats, strings, shifts), storing at a slice position that does
//     not itself derive from the loop variables, sending on a channel,
//     returning a loop-derived value, or calling a method with an
//     argument that mentions the range key or value — the body's own
//     statements may store nothing while the method appends, allocates
//     or marks in map order.
//
// Four shapes are order-independent and pass without annotation:
//
//   - commutative integer accumulation (+=, -=, |=, &=, ^=, &^=, *=,
//     ++, --) — wrapping integer arithmetic commutes;
//   - stores into other maps and key-addressed slice writes — per-key
//     state;
//   - guarded extremum updates (`if v > max { max = v }`, optionally
//     with an `acc < 0`-style unset-sentinel disjunct) — a max/min
//     fold commutes; the assigned value must itself be a compared
//     operand, so argmax-style companions stay flagged;
//   - collect-then-sort — appending to a function-local slice that a
//     later call in the same function sorts (sort.Slice, slices.Sort,
//     a local sort* helper); the sort erases the iteration order,
//     provided the comparator is total over the collected elements.
//
// Sites where the nondeterminism is genuinely harmless but not of
// those shapes carry //dexvet:allow determinism <reason>.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// enginePaths are the packages whose determinism the differential
// oracles depend on.
var enginePaths = map[string]bool{
	"repro/internal/core":    true,
	"repro/internal/graph":   true,
	"repro/internal/congest": true,
	"repro/internal/pcycle":  true,
}

// engineNames admits analysistest fixtures by package name.
var engineNames = map[string]bool{"core": true, "graph": true, "congest": true, "pcycle": true}

// Analyzer is the determinism rule.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "engine packages must stay deterministic: no wall clock, no global math/rand, no map-iteration order leaking into engine state, events, or RNG consumption",
	Applies: func(pkg *analysis.Package) bool {
		return enginePaths[pkg.Path] || (analysis.FixturePackage(pkg) && engineNames[pkg.Name])
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, x)
			case *ast.RangeStmt:
				if isMapRange(pass.Pkg, x) {
					checkMapRange(pass, file, x)
				}
			}
			return true
		})
	}
	return nil
}

// callee resolves a call expression to the function or method object it
// invokes, or nil.
func callee(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	f := callee(pass.Pkg, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		switch f.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock — engine packages must be deterministic for a fixed seed", f.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, _ := f.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && f.Name() != "New" && f.Name() != "NewSource" {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global source — use the engine's seeded *rand.Rand (rand.New(rand.NewSource(seed)))", f.Name())
		}
	}
}

func isMapRange(pkg *analysis.Package, rng *ast.RangeStmt) bool {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange flags statements in a map-range body through which the
// iteration order can escape into engine state, events, or the RNG
// stream.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	pkg := pass.Pkg
	body := rng.Body

	// Everything declared inside the body, plus the key/value variables,
	// is "loop-derived"; values mentioning none of these are the same on
	// every iteration order.
	inside := map[types.Object]bool{}
	keyVal := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := pkg.Info.Defs[id]; obj != nil {
				inside[obj], keyVal[obj] = true, true
			}
			if obj := pkg.Info.Uses[id]; obj != nil {
				inside[obj], keyVal[obj] = true, true // `for k = range m` with an outer k
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			inside[obj] = true
		}
		return true
	})

	loopDerived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil && inside[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	// onlyLoopVars reports whether every variable mentioned in e is
	// loop-derived — such an expression addresses state per key, which
	// is order-independent.
	onlyLoopVars := func(e ast.Expr) bool {
		ok := true
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok2 := n.(*ast.Ident); ok2 {
				if v, isVar := pkg.Info.Uses[id].(*types.Var); isVar && !inside[v] {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	outsideRoot := func(e ast.Expr) bool {
		base := baseIdent(e)
		if base == nil {
			return false
		}
		obj := pkg.Info.Uses[base]
		return obj != nil && !inside[obj]
	}

	// stack tracks enclosing nodes so the extremum carve-out can see the
	// guarding if statement. The walker must always return true: Inspect
	// only emits the balancing nil for visited children.
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch st := n.(type) {
		case *ast.CallExpr:
			checkRangeCall(pass, pkg, st)
			checkMethodArgs(pass, pkg, st, keyVal)
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range st.Lhs {
				if !outsideRoot(lhs) {
					continue
				}
				rhs := st.Rhs[0]
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				}
				if st.Tok == token.ASSIGN &&
					(extremumGuarded(stack, lhs, rhs) || sortedAfter(pass, file, rng, lhs, rhs)) {
					continue
				}
				checkStore(pass, pkg, st.Tok, lhs, rhs, loopDerived, onlyLoopVars)
			}
		case *ast.IncDecStmt:
			if outsideRoot(st.X) && !isCommutativeType(pkg, st.X) {
				pass.Reportf(st.Pos(),
					"non-integer %s on state outside the map range — iteration order changes the result", st.Tok)
			}
		case *ast.SendStmt:
			pass.Reportf(st.Pos(),
				"sends on a channel inside map iteration — delivery order becomes iteration-order dependent")
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if loopDerived(r) {
					pass.Reportf(st.Pos(),
						"returns a value chosen by map iteration order")
					break
				}
			}
		}
		return true
	})
}

// checkRangeCall flags RNG draws and stored-callback invocations inside
// a map-range body.
func checkRangeCall(pass *analysis.Pass, pkg *analysis.Package, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[fun]; sel != nil {
			if isRandRand(sel.Recv()) {
				pass.Reportf(call.Pos(),
					"draws from a *rand.Rand inside map iteration — the seed stream becomes iteration-order dependent")
				return
			}
			// A func-typed field is a stored callback (observer): calling
			// it per iteration publishes in map order.
			if v, ok := sel.Obj().(*types.Var); ok {
				if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
					pass.Reportf(call.Pos(),
						"calls the stored callback %s inside map iteration — observers see map order", v.Name())
				}
			}
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[fun].(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
				pass.Reportf(call.Pos(),
					"calls the stored callback %s inside map iteration — observers see map order", v.Name())
			}
		}
	}
}

// checkMethodArgs flags a method call inside a map-range body that
// receives the range key or value in an argument: whatever the method
// does with it — append it to a list, carve an arena run, mark it dirty
// — happens in map order, and none of it shows in the body's own
// statements. A pure query (a lookup, a predicate) is order-independent
// and carries //dexvet:allow determinism with that reason.
func checkMethodArgs(pass *analysis.Pass, pkg *analysis.Package, call *ast.CallExpr, keyVal map[types.Object]bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	sel := pkg.Info.Selections[fun]
	if sel == nil || sel.Kind() != types.MethodVal || isRandRand(sel.Recv()) {
		return
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && keyVal[pkg.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		if found {
			pass.Reportf(call.Pos(),
				"passes the map-range key or value to method %s — its effects follow map iteration order", sel.Obj().Name())
			return
		}
	}
}

// checkStore classifies one assignment to outside state.
func checkStore(pass *analysis.Pass, pkg *analysis.Package, tok token.Token, lhs, rhs ast.Expr,
	loopDerived, onlyLoopVars func(ast.Expr) bool) {

	// Stores into another map are per-key and order-independent; so are
	// slice/array stores whose position derives only from the loop
	// variables.
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if tv, ok := pkg.Info.Types[ix.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return
			}
		}
		if !onlyLoopVars(ix.Index) {
			pass.Reportf(lhs.Pos(),
				"stores at a position that does not derive from the loop variables — element order follows map iteration")
			return
		}
		return
	}

	switch tok {
	case token.ASSIGN:
		if loopDerived(rhs) {
			pass.Reportf(lhs.Pos(),
				"assigns a loop-derived value to state that outlives the map range — last iteration wins, and map order picks it")
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.AND_NOT_ASSIGN, token.MUL_ASSIGN:
		if !isCommutativeType(pkg, lhs) {
			pass.Reportf(lhs.Pos(),
				"%s on a non-integer accumulator inside map iteration — the result depends on iteration order", tok)
		}
	case token.SHL_ASSIGN, token.SHR_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
		pass.Reportf(lhs.Pos(),
			"%s is not commutative — the accumulator depends on map iteration order", tok)
	}
}

// extremumGuarded recognizes the commutative max/min fold: the
// assignment `acc = v` is directly guarded by an if (no else) whose
// condition compares exactly acc against v (`v > acc`, `acc < v`, ...),
// optionally ||-combined with unset-sentinel checks of either operand
// against a literal (`acc < 0 || v < acc`). The assigned value must be
// a compared operand — `argmax = k` under `v > max` is still flagged,
// because ties make it iteration-order dependent. && is rejected: a
// capped update like `acc < 10 && v > acc` does not commute.
func extremumGuarded(stack []ast.Node, lhs, rhs ast.Expr) bool {
	// stack ends [..., IfStmt, BlockStmt, AssignStmt].
	if len(stack) < 3 {
		return false
	}
	ifst, ok := stack[len(stack)-3].(*ast.IfStmt)
	if !ok || ifst.Else != nil || stack[len(stack)-2] != ifst.Body {
		return false
	}
	acc, v := types.ExprString(lhs), types.ExprString(rhs)

	var leaves []ast.Expr
	var flatten func(e ast.Expr) bool
	flatten = func(e ast.Expr) bool {
		if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.LOR {
			return flatten(b.X) && flatten(b.Y)
		}
		if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.LAND {
			return false
		}
		leaves = append(leaves, ast.Unparen(e))
		return true
	}
	if !flatten(ifst.Cond) {
		return false
	}

	isLit := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok { // -1 parses as unary minus
			e = u.X
		}
		_, ok := e.(*ast.BasicLit)
		return ok
	}
	main := false
	for _, leaf := range leaves {
		b, ok := leaf.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		x, y := types.ExprString(b.X), types.ExprString(b.Y)
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if (x == acc && y == v) || (x == v && y == acc) {
				main = true
				continue
			}
		case token.EQL, token.NEQ:
		default:
			return false
		}
		if ((x == acc || x == v) && isLit(b.Y)) || ((y == acc || y == v) && isLit(b.X)) {
			continue // unset sentinel
		}
		return false
	}
	return main
}

// sortedAfter recognizes collect-then-sort: `x = append(x, ...)` into a
// function-local slice that some call after the range sorts — a
// sort.* / slices.* call or a local sort-prefixed helper taking x (or a
// reslice of x) as an argument. The sort erases iteration order, so
// the append is not a leak.
func sortedAfter(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, lhs, rhs ast.Expr) bool {
	pkg := pass.Pkg
	base := baseIdent(lhs)
	if base == nil {
		return false
	}
	obj, ok := pkg.Info.Uses[base].(*types.Var)
	if !ok || obj.Parent() == pkg.Types.Scope() {
		return false // package-level: a later sort may be a different path
	}

	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	if first := baseIdent(call.Args[0]); first == nil || pkg.Info.Uses[first] != obj {
		return false
	}

	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() || found {
			return !found
		}
		if !isSortCall(pkg, call) {
			return true
		}
		for _, arg := range call.Args {
			if b := baseIdent(sliceRoot(arg)); b != nil && pkg.Info.Uses[b] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSortCall reports whether call invokes a sorting routine: anything
// from package sort or slices, or a same-package helper whose name
// starts with "sort".
func isSortCall(pkg *analysis.Package, call *ast.CallExpr) bool {
	f := callee(pkg, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return strings.HasPrefix(f.Name(), "sort") || strings.HasPrefix(f.Name(), "Sort")
}

// sliceRoot unwraps buf[n:] to buf.
func sliceRoot(e ast.Expr) ast.Expr {
	if s, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		return s.X
	}
	return e
}

// isCommutativeType reports whether e's type makes repeated +=/-=/etc.
// order-independent: integers (wrapping arithmetic commutes) and
// booleans. Floats are non-associative; strings concatenate in order.
func isCommutativeType(pkg *analysis.Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

func isRandRand(t types.Type) bool {
	return analysis.IsType(t, "math/rand", "Rand") || analysis.IsType(t, "math/rand/v2", "Rand")
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
