package graph

import (
	"fmt"
	"testing"
)

// idSpace bounds fuzzed node ids so op sequences collide often enough to
// exercise multiplicity growth, run recycling, and slot reuse.
const idSpace = 32

// applyGraphOp decodes one (op, a, b) byte triple into a mutation applied
// to the arena and the Ref oracle simultaneously. Return-value-bearing
// ops must agree on the spot.
func applyGraphOp(t *testing.T, g *Graph, r *Ref, op, a, b byte) {
	t.Helper()
	u, v := NodeID(a%idSpace), NodeID(b%idSpace)
	switch op % 8 {
	case 0, 1: // AddEdge, twice as likely so graphs grow
		g.AddEdge(u, v)
		r.AddEdge(u, v)
	case 2:
		if got, want := g.RemoveEdge(u, v), r.RemoveEdge(u, v); got != want {
			t.Fatalf("RemoveEdge(%d,%d): arena %v, ref %v", u, v, got, want)
		}
	case 3:
		g.AddNode(u)
		r.AddNode(u)
	case 4:
		g.RemoveNode(u)
		r.RemoveNode(u)
	case 5:
		k := int(b>>5) + 1 // 1..8
		g.AddEdgeMult(u, v, k)
		r.AddEdgeMult(u, v, k)
	case 6:
		k := int(b>>5) + 1
		if got, want := g.RemoveEdgeMult(u, v, k), r.RemoveEdgeMult(u, v, k); got != want {
			t.Fatalf("RemoveEdgeMult(%d,%d,%d): arena %d, ref %d", u, v, k, got, want)
		}
	case 7: // walk step: the two implementations must choose identically
		seed := uint64(a)<<8 | uint64(b)
		gn, gok := g.RandomNeighborStep(u, -1, seed)
		rn, rok := r.RandomNeighborStep(u, -1, seed)
		if gn != rn || gok != rok {
			t.Fatalf("RandomNeighborStep(%d, r=%d): arena (%d,%v), ref (%d,%v)", u, seed, gn, gok, rn, rok)
		}
	}
}

// diffGraphs asserts the arena and the Ref oracle describe the same
// multigraph: node set, edge list, per-node degrees and multiplicities,
// and both internal validations.
func diffGraphs(g *Graph, r *Ref) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if g.NumNodes() != r.NumNodes() || g.NumEdges() != r.NumEdges() {
		return fmt.Errorf("arena %d nodes / %d edges, ref %d / %d",
			g.NumNodes(), g.NumEdges(), r.NumNodes(), r.NumEdges())
	}
	gn, rn := g.Nodes(), r.Nodes()
	for i, u := range gn {
		if rn[i] != u {
			return fmt.Errorf("node lists diverge at %d: arena %d, ref %d", i, u, rn[i])
		}
		if g.Degree(u) != r.Degree(u) {
			return fmt.Errorf("node %d: arena degree %d, ref %d", u, g.Degree(u), r.Degree(u))
		}
		if g.DistinctDegree(u) != r.DistinctDegree(u) {
			return fmt.Errorf("node %d: arena distinct degree %d, ref %d",
				u, g.DistinctDegree(u), r.DistinctDegree(u))
		}
		// Slot-column coherence: every (id, slot) pair the slot-native
		// iteration yields must agree with the slot table, both ways. This
		// is the invariant the recovery walks lean on to skip the id->slot
		// map on every hop.
		s, ok := g.SlotOf(u)
		if !ok {
			return fmt.Errorf("node %d listed but has no slot", u)
		}
		if got, live := g.NodeAt(s); !live || got != u {
			return fmt.Errorf("slot %d of node %d resolves to (%d,%v)", s, u, got, live)
		}
		for _, c := range g.RunAt(s) {
			if want, live := g.SlotOf(c.V); !live || c.S != want {
				return fmt.Errorf("node %d: neighbor %d carries slot %d, table says (%d,%v)",
					u, c.V, c.S, want, live)
			}
			if got, live := g.NodeAt(c.S); !live || got != c.V {
				return fmt.Errorf("node %d: neighbor slot %d resolves to (%d,%v), want %d",
					u, c.S, got, live, c.V)
			}
		}
	}
	ge, re := g.Edges(), r.Edges()
	if len(ge) != len(re) {
		return fmt.Errorf("arena %d distinct edges, ref %d", len(ge), len(re))
	}
	for i, e := range ge {
		if re[i] != e {
			return fmt.Errorf("edge lists diverge at %d: arena %+v, ref %+v", i, e, re[i])
		}
		if m := r.Multiplicity(e.U, e.V); m != e.Mult {
			return fmt.Errorf("edge {%d,%d}: arena multiplicity %d, ref %d", e.U, e.V, e.Mult, m)
		}
	}
	return nil
}

// FuzzGraphOps is the swap-safety differential fuzzer for the adjacency
// arena: arbitrary byte strings decode into Add/Remove node/edge
// sequences applied to the arena and the map-of-maps Ref oracle in
// lockstep, asserting identical observable state after every operation.
// This is what lets the graph representation be replaced fearlessly (the
// FuzzChurnTrace of the substrate layer). Run it with `make fuzz` or
//
//	go test ./internal/graph -run '^$' -fuzz FuzzGraphOps
func FuzzGraphOps(f *testing.F) {
	grow := []byte{}
	for i := 0; i < 40; i++ {
		grow = append(grow, 0, byte(i*7), byte(i*13))
	}
	f.Add(grow)

	churn := []byte{}
	for i := 0; i < 60; i++ {
		churn = append(churn, byte(i%8), byte(i*5), byte(i*11))
	}
	f.Add(churn)

	loops := []byte{}
	for i := 0; i < 30; i++ {
		loops = append(loops, byte(i%8), byte(i), byte(i)) // u == v: self-loops
	}
	f.Add(loops)

	f.Add([]byte{4, 0, 0})
	f.Add([]byte{5, 1, 255, 6, 1, 255, 4, 1, 0})

	// A run long enough to cross findNbr's binary-narrowing threshold,
	// then membership probes at every position: re-adds (in-place bump)
	// and removals each depend on the boundary cell being found.
	star := []byte{}
	for i := 1; i < idSpace; i++ {
		star = append(star, 0, 1, byte(i))
	}
	for i := 1; i < idSpace; i++ {
		star = append(star, 0, 1, byte(i), 2, 1, byte(i))
	}
	f.Add(star)

	// Narrowing threshold: grow one run across findNbr's 16-cell
	// binary-narrowing bound, shrink it back below, regrow it, then delete
	// the hub node so compaction pressure repacks long runs. Every
	// membership probe along the way narrows over freshly shifted cells.
	threshold := []byte{}
	for i := 2; i < idSpace; i++ { // grow hub 1 past the threshold
		threshold = append(threshold, 0, 1, byte(i))
	}
	for i := 2; i < 24; i++ { // shrink below it, probing as it shifts
		threshold = append(threshold, 2, 1, byte(i))
	}
	for i := 2; i < 24; i++ { // regrow across it
		threshold = append(threshold, 0, 1, byte(i))
	}
	// Drop the hub (its big run goes to the free lists), then rebuild on a
	// second hub over recycled runs.
	threshold = append(threshold, 4, 1, 0)
	for i := 2; i < idSpace; i++ {
		threshold = append(threshold, 0, 0, byte(i))
	}
	f.Add(threshold)

	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		r := NewRef()
		n := len(data)
		if n > 900 {
			n = 900 // bound trace length so each input stays fast
		}
		for i := 0; i+2 < n; i += 3 {
			applyGraphOp(t, g, r, data[i], data[i+1], data[i+2])
			if err := diffGraphs(g, r); err != nil {
				t.Fatalf("op %d (%d %d %d): %v", i/3, data[i], data[i+1], data[i+2], err)
			}
		}
		// A clone must be a detached but identical arena.
		c := g.Clone()
		if err := diffGraphs(c, r); err != nil {
			t.Fatalf("clone: %v", err)
		}
		c.AddEdge(NodeID(idSpace), NodeID(idSpace+1))
		if g.HasNode(NodeID(idSpace)) {
			t.Fatal("clone shares storage with original")
		}
	})
}
