package graph

import "testing"

// The allocation-regression gates below are part of the tentpole's
// acceptance: walk hops and steady-state edge churn must not allocate.
// testing.AllocsPerRun fails these tests (and CI) the moment a slice or
// map sneaks back into the hot paths.

// steadyGraph builds a contraction-shaped multigraph and warms the arena
// so its runs and free lists are at steady-state capacity.
func steadyGraph(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n))
		g.AddEdge(NodeID(i), NodeID((i*7+3)%n))
		g.AddEdge(NodeID(i), NodeID(i)) // self-loop, as contraction produces
	}
	return g
}

func TestWalkHopZeroAllocs(t *testing.T) {
	g := steadyGraph(256)
	state := uint64(12345)
	cur := NodeID(0)
	allocs := testing.AllocsPerRun(1000, func() {
		state += 0x9e3779b97f4a7c15
		next, ok := g.RandomNeighborStep(cur, -1, state)
		if !ok {
			t.Fatal("walk stuck")
		}
		cur = next
	})
	if allocs != 0 {
		t.Fatalf("RandomNeighborStep allocates %.1f per hop, want 0", allocs)
	}
}

func TestRunAtZeroAllocs(t *testing.T) {
	g := steadyGraph(256)
	s, _ := g.SlotOf(7)
	sum := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for _, c := range g.RunAt(s) {
			sum += int(c.V) * int(c.M)
		}
	})
	if allocs != 0 {
		t.Fatalf("a scan of RunAt allocates %.1f per call, want 0", allocs)
	}
	_ = sum
}

// TestEdgeChurnZeroAllocsSteadyState asserts AddEdge/RemoveEdge pairs are
// allocation-free once the node's run has reached capacity: churn at
// bounded degree reuses arena space instead of growing it.
func TestEdgeChurnZeroAllocsSteadyState(t *testing.T) {
	g := steadyGraph(256)
	// Warm the exact edges the loop toggles so no run needs to grow.
	g.AddEdge(3, 200)
	g.RemoveEdge(3, 200)
	allocs := testing.AllocsPerRun(1000, func() {
		g.AddEdge(3, 200)
		if !g.RemoveEdge(3, 200) {
			t.Fatal("edge vanished")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AddEdge+RemoveEdge allocates %.1f, want 0", allocs)
	}
}

// TestNodeChurnZeroAllocsSteadyState covers the full node lifecycle: after
// warmup, a remove/re-add cycle of a node and its edges runs entirely off
// the slot and run free lists. (The sparse index map itself is the one
// structure Go may rehash, so the cycle keeps the id set fixed.)
func TestNodeChurnZeroAllocsSteadyState(t *testing.T) {
	g := steadyGraph(64)
	cycleOnce := func() {
		g.RemoveNode(10)
		g.AddEdge(10, 11)
		g.AddEdge(10, 12)
		g.AddEdge(10, 10)
	}
	cycleOnce() // warm free lists
	allocs := testing.AllocsPerRun(1000, cycleOnce)
	if allocs != 0 {
		t.Fatalf("steady-state node churn allocates %.1f, want 0", allocs)
	}
}

// TestDegreeAccessorsZeroAllocs pins the O(1) cached accessors.
func TestDegreeAccessorsZeroAllocs(t *testing.T) {
	g := steadyGraph(64)
	d := 0
	allocs := testing.AllocsPerRun(1000, func() {
		d += g.Degree(5) + g.DistinctDegree(5) + g.Multiplicity(5, 6)
	})
	if allocs != 0 {
		t.Fatalf("degree accessors allocate %.1f, want 0", allocs)
	}
	_ = d
}
