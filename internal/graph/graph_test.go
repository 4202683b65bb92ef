package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func path(n int) *Graph {
	g := New()
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(NodeID(n-1), 0)
	return g
}

func TestBasicOps(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 2) // parallel
	g.AddEdge(3, 3) // loop

	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.Multiplicity(1, 2) != 2 || g.Multiplicity(2, 1) != 2 {
		t.Fatal("parallel edge multiplicity wrong")
	}
	if g.Degree(1) != 2 || g.Degree(2) != 3 || g.Degree(3) != 2 {
		t.Fatalf("degrees: %d %d %d", g.Degree(1), g.Degree(2), g.Degree(3))
	}
	if g.DistinctDegree(3) != 1 {
		t.Fatalf("DistinctDegree(3) = %d", g.DistinctDegree(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdgeMultiplicity(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge failed")
	}
	if g.Multiplicity(1, 2) != 1 || g.NumEdges() != 1 {
		t.Fatal("multiplicity not decremented")
	}
	if !g.RemoveEdge(2, 1) {
		t.Fatal("RemoveEdge from other side failed")
	}
	if g.HasEdge(1, 2) || g.NumEdges() != 0 {
		t.Fatal("edge not fully removed")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge of absent edge returned true")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := cycle(5)
	g.AddEdge(2, 2)
	g.RemoveNode(2)
	if g.HasNode(2) {
		t.Fatal("node still present")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(99) // no-op
}

func TestBFSAndShortestPath(t *testing.T) {
	g := path(10)
	d := g.BFSDistances(0)
	for i := 0; i < 10; i++ {
		if d[NodeID(i)] != i {
			t.Fatalf("dist to %d = %d", i, d[NodeID(i)])
		}
	}
	p := g.ShortestPath(0, 9)
	if len(p) != 10 || p[0] != 0 || p[9] != 9 {
		t.Fatalf("path = %v", p)
	}
	if g.ShortestPath(0, 0)[0] != 0 {
		t.Fatal("trivial path wrong")
	}

	h := New()
	h.AddNode(1)
	h.AddNode(2)
	if h.ShortestPath(1, 2) != nil {
		t.Fatal("path across components should be nil")
	}
}

func TestConnectedAndDiameter(t *testing.T) {
	if !New().Connected() {
		t.Fatal("empty graph should be connected")
	}
	g := cycle(8)
	if !g.Connected() {
		t.Fatal("cycle disconnected?")
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("diameter of C8 = %d, want 4", d)
	}
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("eccentricity = %d", e)
	}
	g.AddNode(100)
	if g.Connected() || g.Diameter() != -1 || g.Eccentricity(0) != -1 {
		t.Fatal("disconnected graph misreported")
	}
}

func TestQuotientContraction(t *testing.T) {
	// Contract C6 pairwise: {0,1}->0, {2,3}->2, {4,5}->4 gives a triangle
	// with self-loops from intra-group edges.
	g := cycle(6)
	q := g.Quotient(func(u NodeID) NodeID { return u - u%2 })
	if q.NumNodes() != 3 {
		t.Fatalf("quotient nodes = %d", q.NumNodes())
	}
	if q.NumEdges() != 6 {
		t.Fatalf("quotient edges = %d, want 6", q.NumEdges())
	}
	if q.Multiplicity(0, 0) != 1 || q.Multiplicity(2, 2) != 1 || q.Multiplicity(4, 4) != 1 {
		t.Fatal("expected self-loops from contracted edges")
	}
	if !q.HasEdge(0, 2) || !q.HasEdge(2, 4) || !q.HasEdge(4, 0) {
		t.Fatal("expected triangle edges")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotientPreservesTotalDegree(t *testing.T) {
	// Contraction preserves the edge count, hence the total multigraph
	// degree: this is why a C-balanced mapping of a 3-regular virtual graph
	// has node degrees exactly 3*Load (Section 3.1).
	rng := rand.New(rand.NewSource(7))
	g := New()
	for i := 0; i < 60; i++ {
		g.AddEdge(NodeID(rng.Intn(30)), NodeID(rng.Intn(30)))
	}
	q := g.Quotient(func(u NodeID) NodeID { return u % 7 })
	if q.NumEdges() != g.NumEdges() {
		t.Fatalf("quotient edges %d != original %d", q.NumEdges(), g.NumEdges())
	}
}

func TestToCSR(t *testing.T) {
	g := New()
	g.AddEdge(10, 20)
	g.AddEdge(10, 20)
	g.AddEdge(20, 30)
	g.AddEdge(30, 30)
	c := g.ToCSR()
	if len(c.IDs) != 3 {
		t.Fatalf("CSR ids = %v", c.IDs)
	}
	i10, i20, i30 := c.Index[10], c.Index[20], c.Index[30]
	if c.Deg[i10] != 2 || c.Deg[i20] != 3 || c.Deg[i30] != 2 {
		t.Fatalf("CSR degrees = %v", c.Deg)
	}
	// Row of 10 has a single entry (20) with weight 2.
	row := c.Adj[c.RowPtr[i10]:c.RowPtr[i10+1]]
	if len(row) != 1 || int(row[0]) != i20 || c.Wt[c.RowPtr[i10]] != 2 {
		t.Fatal("CSR row for node 10 wrong")
	}
	_ = i30
}

func TestCloneIndependence(t *testing.T) {
	g := cycle(4)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("clone shares storage")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Fatal("edge counts diverged incorrectly")
	}
}

// TestCloneCarriesFreeAccounting pins a regression: a clone must copy the
// free-cell counter along with the free lists, or its compaction trigger
// and Stats never see the parked runs it inherited.
func TestCloneCarriesFreeAccounting(t *testing.T) {
	g := New()
	for i := 0; i < 32; i++ {
		for j := 0; j < 12; j++ {
			g.AddEdge(NodeID(i), NodeID(100+j))
		}
	}
	for i := 0; i < 32; i++ {
		g.RemoveNode(NodeID(i)) // parks the grown runs on the free lists
	}
	if g.Stats().FreeCells == 0 {
		t.Fatal("churn left nothing on the free lists; test needs a heavier trace")
	}
	c := g.Clone()
	if got, want := c.Stats().FreeCells, g.Stats().FreeCells; got != want {
		t.Fatalf("clone FreeCells = %d, original %d", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: random edit sequences keep the graph internally consistent and
// the handshake identity holds.
func TestRandomEditsStayValidQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		type edge struct{ u, v NodeID }
		var present []edge
		for op := 0; op < 400; op++ {
			u := NodeID(rng.Intn(25))
			v := NodeID(rng.Intn(25))
			switch rng.Intn(4) {
			case 0, 1:
				g.AddEdge(u, v)
				present = append(present, edge{u, v})
			case 2:
				if len(present) > 0 {
					i := rng.Intn(len(present))
					e := present[i]
					if !g.RemoveEdge(e.u, e.v) {
						return false
					}
					present[i] = present[len(present)-1]
					present = present[:len(present)-1]
				}
			case 3:
				g.RemoveNode(u)
				var kept []edge
				for _, e := range present {
					if e.u != u && e.v != u {
						kept = append(kept, e)
					}
				}
				present = kept
			}
			if g.Validate() != nil {
				return false
			}
		}
		return g.NumEdges() == len(present)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle inequality along edges.
func TestBFSTriangleQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := cycle(12)
		for i := 0; i < 6; i++ {
			g.AddEdge(NodeID(rng.Intn(12)), NodeID(rng.Intn(12)))
		}
		d := g.BFSDistances(0)
		for _, e := range g.Edges() {
			du, dv := d[e.U], d[e.V]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaMatchesRef is the deterministic arena-vs-Ref differential
// suite: long seeded churn traces (adds, removes, node deletions, bulk
// multiplicity ops, walk steps) applied to both representations with the
// full observable state compared after every operation. FuzzGraphOps
// explores the same oracle coverage-guided; this test pins a broad sample
// of it into every ordinary `go test` run.
func TestArenaMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		r := NewRef()
		for op := 0; op < 1200; op++ {
			u := NodeID(rng.Intn(40))
			v := NodeID(rng.Intn(40))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				g.AddEdge(u, v)
				r.AddEdge(u, v)
			case 4, 5:
				if got, want := g.RemoveEdge(u, v), r.RemoveEdge(u, v); got != want {
					t.Fatalf("seed %d op %d: RemoveEdge(%d,%d) arena %v ref %v", seed, op, u, v, got, want)
				}
			case 6:
				k := 1 + rng.Intn(5)
				g.AddEdgeMult(u, v, k)
				r.AddEdgeMult(u, v, k)
			case 7:
				k := 1 + rng.Intn(5)
				if got, want := g.RemoveEdgeMult(u, v, k), r.RemoveEdgeMult(u, v, k); got != want {
					t.Fatalf("seed %d op %d: RemoveEdgeMult arena %d ref %d", seed, op, got, want)
				}
			case 8:
				g.RemoveNode(u)
				r.RemoveNode(u)
			case 9:
				z := rng.Uint64()
				gn, gok := g.RandomNeighborStep(u, -1, z)
				rn, rok := r.RandomNeighborStep(u, -1, z)
				if gn != rn || gok != rok {
					t.Fatalf("seed %d op %d: step from %d diverged: arena (%d,%v) ref (%d,%v)",
						seed, op, u, gn, gok, rn, rok)
				}
			}
			if err := diffGraphs(g, r); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// TestRunAtOrder pins the deterministic contract walk reproducibility
// rests on: a run lists its cells in ascending NodeID order, the node's
// own cell included, each with its multiplicity and its neighbor's slot.
func TestRunAtOrder(t *testing.T) {
	g := New()
	g.AddEdge(5, 9)
	g.AddEdge(5, 2)
	g.AddEdge(5, 2)
	g.AddEdge(5, 5)
	slot := func(u NodeID) int32 {
		s, ok := g.SlotOf(u)
		if !ok {
			t.Fatalf("node %d has no slot", u)
		}
		return s
	}
	want := []RunCell{
		{V: 2, M: 2, S: slot(2)},
		{V: 5, M: 1, S: slot(5)},
		{V: 9, M: 1, S: slot(9)},
	}
	if got := g.RunAt(slot(5)); !slices.Equal(got, want) {
		t.Fatalf("RunAt = %+v, want %+v", got, want)
	}
	iso := g.AddNode(404)
	if got := g.RunAt(iso); len(got) != 0 {
		t.Fatalf("isolated node's run = %+v, want none", got)
	}
}

// TestRandomNeighborStepMatchesWeighted confirms RandomNeighborStep makes
// the same choice a selection over the run's (neighbor, multiplicity)
// cells would, for every residue and with exclusion — the property that
// keeps seeded experiment traces identical across the representation
// swap.
func TestRandomNeighborStepMatchesWeighted(t *testing.T) {
	g := cycle(9)
	g.AddEdge(0, 3)
	g.AddEdge(0, 3)
	g.AddEdge(0, 0)
	s0, _ := g.SlotOf(0)
	for _, exclude := range []NodeID{-1, 3} {
		run := g.RunAt(s0)
		total := 0
		for _, c := range run {
			if c.V == exclude {
				continue
			}
			total += int(c.M)
		}
		for r := uint64(0); r < uint64(3*total); r++ {
			pick := int(r % uint64(total))
			var want NodeID
			for _, c := range run {
				if c.V == exclude {
					continue
				}
				pick -= int(c.M)
				if pick < 0 {
					want = c.V
					break
				}
			}
			got, ok := g.RandomNeighborStep(0, exclude, r)
			if !ok || got != want {
				t.Fatalf("r=%d exclude=%d: got (%d,%v), want %d", r, exclude, got, ok, want)
			}
		}
	}
	if _, ok := New().RandomNeighborStep(1, -1, 0); ok {
		t.Fatal("step from absent node succeeded")
	}
	iso := New()
	iso.AddNode(7)
	if _, ok := iso.RandomNeighborStep(7, -1, 5); ok {
		t.Fatal("step from isolated node succeeded")
	}
}

// TestRunRecycling drives a slot/run churn pattern and checks the arena
// recycles rather than leaks: after many node lifecycles the pool stays
// bounded.
func TestRunRecycling(t *testing.T) {
	g := New()
	for round := 0; round < 200; round++ {
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if i != j {
					g.AddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		for i := 0; i < 16; i++ {
			g.RemoveNode(NodeID(i))
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("graph not empty: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// 16 nodes of distinct degree 15 need runs of capacity 16: even with
	// growth waste the pool should stay a small constant multiple.
	if len(g.pool) > 16*64 {
		t.Fatalf("pool grew to %d entries: runs are not recycled", len(g.pool))
	}
}

func BenchmarkBFS4096(b *testing.B) {
	g := cycle(4096)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		g.AddEdge(NodeID(rng.Intn(4096)), NodeID(rng.Intn(4096)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSDistances(0)
	}
}

// TestFindNbrEveryPosition probes membership at every position of runs
// long enough to cross findNbr's binary-narrowing threshold. The
// regression this pins: a target sitting exactly on the narrowed upper
// boundary was reported absent, which let AddEdge duplicate an existing
// entry and desynchronize the two half-edges.
func TestFindNbrEveryPosition(t *testing.T) {
	for _, deg := range []int{1, 15, 16, 17, 18, 33, 40, 100} {
		g := New()
		for i := 1; i <= deg; i++ {
			g.AddEdge(0, NodeID(2*i))
		}
		for i := 1; i <= deg; i++ {
			if !g.HasEdge(0, NodeID(2*i)) {
				t.Fatalf("deg %d: neighbor %d reported absent", deg, 2*i)
			}
			if g.HasEdge(0, NodeID(2*i+1)) {
				t.Fatalf("deg %d: phantom neighbor %d", deg, 2*i+1)
			}
			// Re-adding must bump multiplicity in place, not duplicate the cell.
			g.AddEdge(0, NodeID(2*i))
			if got := g.Multiplicity(0, NodeID(2*i)); got != 2 {
				t.Fatalf("deg %d: multiplicity of %d = %d after re-add", deg, 2*i, got)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("deg %d: %v", deg, err)
		}
	}
}

// TestSelfCellEveryPosition puts a node's self cell at every position
// of runs of 1..100 cells (the TestFindNbrEveryPosition shape: node 2p+1
// sorts between neighbors 2p and 2p+2) and requires DistinctDegree and
// Validate to stay exact while neighbors are added and removed around
// it. insertEntry and removeEntry tell the self cell apart by its slot.
func TestSelfCellEveryPosition(t *testing.T) {
	check := func(g *Graph, u NodeID, want int, what string) {
		t.Helper()
		if got := g.DistinctDegree(u); got != want {
			t.Fatalf("%s: DistinctDegree(%d) = %d, want %d", what, u, got, want)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for deg := 1; deg <= 100; deg++ {
		for p := 0; p <= deg; p++ {
			g := New()
			u := NodeID(2*p + 1)
			for i := 1; i <= deg; i++ {
				g.AddEdge(u, NodeID(2*i))
			}
			what := fmt.Sprintf("deg %d, self at %d", deg, p)
			g.AddEdge(u, u)
			check(g, u, deg, what+": loop added")
			g.AddEdge(u, NodeID(2*deg+2)) // a cell past the end
			check(g, u, deg+1, what+": neighbor appended")
			g.RemoveEdge(u, NodeID(2)) // the first cell
			check(g, u, deg, what+": first neighbor removed")
			g.AddEdge(0, u) // a cell at the front
			check(g, u, deg+1, what+": front neighbor added")
			g.AddEdge(u, u)
			g.RemoveEdge(u, NodeID(2*deg+2))
			check(g, u, deg, what+": loop doubled, last neighbor removed")
			g.RemoveEdgeMult(u, u, 2)
			check(g, u, deg, what+": loop removed")
			g.AddEdgeMult(u, u, 3)
			check(g, u, deg, what+": loop re-added")
		}
	}
}

// TestFindNbrExtremeIDs drives runs whose keys sit around ±2^31 and
// ±2^62, so a probe that ordered on anything narrower than the full
// 64-bit id would misplace them. Runs of 17, 40 and 100 cells cross
// findNbr's 16-cell binary-narrowing bound; the probing is
// TestFindNbrEveryPosition's, hits and misses at every position.
func TestFindNbrExtremeIDs(t *testing.T) {
	bases := []NodeID{-1 << 62, -1 << 31, 1<<31 - 40, 1 << 62}
	for _, base := range bases {
		for _, deg := range []int{17, 40, 100} {
			g := New()
			for i := 1; i <= deg; i++ {
				g.AddEdge(0, base+NodeID(2*i))
			}
			for i := 1; i <= deg; i++ {
				if !g.HasEdge(0, base+NodeID(2*i)) {
					t.Fatalf("base %d deg %d: neighbor %d reported absent", base, deg, 2*i)
				}
				if g.HasEdge(0, base+NodeID(2*i+1)) {
					t.Fatalf("base %d deg %d: phantom neighbor %d", base, deg, 2*i+1)
				}
				g.AddEdge(0, base+NodeID(2*i))
				if got := g.Multiplicity(0, base+NodeID(2*i)); got != 2 {
					t.Fatalf("base %d deg %d: multiplicity of %d after re-add = %d", base, deg, 2*i, got)
				}
			}
			for i := deg; i >= 1; i-- { // shrink back through the threshold
				if got := g.RemoveEdgeMult(0, base+NodeID(2*i), 2); got != 2 {
					t.Fatalf("base %d deg %d: removed %d of neighbor %d", base, deg, got, 2*i)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("base %d deg %d after removing %d: %v", base, deg, 2*i, err)
				}
			}
		}
	}
}

// TestNodeRecSize pins the slot record at its five int32 fields, 20
// bytes with no padding: a padded 32-byte record measured slower on the
// walk hop.
func TestNodeRecSize(t *testing.T) {
	if got := unsafe.Sizeof(nodeRec{}); got != 20 {
		t.Fatalf("nodeRec is %d bytes, want 20", got)
	}
}
