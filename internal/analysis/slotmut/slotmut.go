// Package slotmut flags id-keyed graph mutations in internal/core made
// by callers that already hold the node's slot — exactly the call
// shape whose cost the retired (and racy) one-entry lastID/lastSlot
// mutation cache in internal/graph tried to hide before PR 8 replaced
// it with the slot-native AddEdgeAt/RemoveEdgeAt(Mult) forms.
//
// The rule: inside internal/core, a call to an id-keyed mutator —
// graph.Graph's AddEdge/AddEdgeMult/RemoveEdge/RemoveEdgeMult or
// core's addRealEdge/removeRealEdge and rawAddEdgeMult/rawRemoveEdgeMult
// funnels — is a finding when the enclosing function has already
// resolved a slot for one of the endpoint identifiers (via
// SlotOf/slotOf, or the store's slot) earlier in its body: the
// *At form would erase a redundant id->slot map probe from the churn
// path. Call sites with no slot in hand (scratch/oracle graphs, the
// generic id-keyed funnels themselves) are not findings.
package slotmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// idMutators maps each id-keyed mutator to its slot-native form. The
// lower-case entries are internal/core's mutation funnels, the rest are
// the graph arena's.
var idMutators = map[string]string{
	"AddEdge":           "AddEdgeAt",
	"AddEdgeMult":       "AddEdgeMultAt",
	"RemoveEdge":        "RemoveEdgeAt",
	"RemoveEdgeMult":    "RemoveEdgeMultAt",
	"addRealEdge":       "addRealEdgeAt",
	"removeRealEdge":    "removeRealEdgeAt",
	"rawAddEdgeMult":    "rawAddEdgeMultAt",
	"rawRemoveEdgeMult": "rawRemoveEdgeMultAt",
}

// slotResolvers are the id->slot probes; holding their result is what
// makes an id-keyed mutation redundant.
var slotResolvers = map[string]bool{"SlotOf": true, "slotOf": true, "slot": true}

// Analyzer is the slotmut rule.
var Analyzer = &analysis.Analyzer{
	Name: "slotmut",
	Doc:  "internal/core must use the slot-native *At graph mutators when the caller already holds the endpoint's slot",
	Applies: func(pkg *analysis.Package) bool {
		return pkg.Path == "repro/internal/core" ||
			(analysis.FixturePackage(pkg) && pkg.Name == "core")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc records, in body order, which node-id variables have had a
// slot resolved, and flags later id-keyed mutations of those ids.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg
	// resolved maps a node-id variable to the position of its id->slot
	// probe.
	resolved := map[types.Object]token.Pos{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name

		if slotResolvers[name] && len(call.Args) >= 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil {
					if _, seen := resolved[obj]; !seen {
						resolved[obj] = call.Pos()
					}
				}
			}
			return true
		}

		atForm, isMutator := idMutators[name]
		if !isMutator || !isEngineMutation(pkg, sel) {
			return true
		}
		// The id endpoints are the leading NodeID arguments (two for the
		// graph forms and the raw funnels alike).
		for i, arg := range call.Args {
			if i >= 2 {
				break
			}
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Uses[id]
			if obj == nil {
				continue
			}
			if pos, seen := resolved[obj]; seen && pos < call.Pos() {
				pass.Reportf(call.Pos(),
					"id-keyed %s(%s, ...) after %s's slot was already resolved at line %d — use the slot-native %s form and skip the id->slot probe",
					name, id.Name, id.Name, pkg.Fset.Position(pos).Line, atForm)
				break
			}
		}
		return true
	})
}

// isEngineMutation keeps the rule on the live engine structures: the
// receiver must be the graph arena type (any package's type named
// Graph works, so fixtures can define their own) or internal/core's
// Network (its funnels).
func isEngineMutation(pkg *analysis.Package, sel *ast.SelectorExpr) bool {
	s := pkg.Info.Selections[sel]
	if s == nil {
		return false
	}
	n := analysis.NamedOf(s.Recv())
	if n == nil {
		return false
	}
	return n.Obj().Name() == "Graph" || n.Obj().Name() == "Network"
}
