package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// corruptLoad bumps u's stored load behind the engine's back — without
// touching counters, sets, or dirty marks — for audit-detection tests.
func (st *state) corruptLoad(u NodeID, d int) {
	st.rows[st.slot(u)].load += int32(d)
}

// loadSnapshot materializes the load table for state comparisons.
func (st *state) loadSnapshot() map[NodeID]int {
	out := make(map[NodeID]int, st.size())
	for _, e := range st.nodeList {
		out[e.id] = st.loadOf(e.id)
	}
	return out
}

// simSnapshot materializes every Sim set for state comparisons.
func (st *state) simSnapshot() map[NodeID][]Vertex {
	out := make(map[NodeID][]Vertex, st.size())
	for _, e := range st.nodeList {
		var vs []Vertex
		for _, x := range st.setAt(st.slot(e.id), false) {
			vs = append(vs, Vertex(x))
		}
		out[e.id] = vs
	}
	return out
}

// TestSlotRowIs32Bytes pins the store row's size: at 32 bytes two rows
// share each 64-byte cache line of a page-aligned rows slice and none
// straddles one, so every field a stop predicate, a vertex move or a
// node check reads comes with one miss.
func TestSlotRowIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(slotRow{}); n != 32 {
		t.Fatalf("slotRow is %d bytes, want 32", n)
	}
}

// TestStoreVertexArenaRecycles checks the store's size-class free
// lists: churn at steady degree must reuse arena cells rather than
// growing the pool, and a rebuild's transient big runs must be
// reclaimed (compaction) instead of pinning the high-water mark.
func TestStoreVertexArenaRecycles(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 32, cfg)
	rng := rand.New(rand.NewSource(5))
	churn := func(steps int) {
		for i := 0; i < steps; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < 0.5 || nw.Size() <= 8 {
				if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
					t.Fatal(err)
				}
			} else if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(600) // crosses several rebuilds
	poolCells, freeCells := cap(nw.st.arena.buf), nw.st.arena.freeCells
	liveCells := 0
	for s := range nw.st.rows {
		liveCells += int(nw.st.rows[s].sim.n + nw.st.newRuns[s].n)
	}
	if liveCells == 0 {
		t.Fatal("no live vertex cells after churn")
	}
	// The pool may round runs up and keep some free-list slack, but it
	// must stay within a small constant of the live vertex count — the
	// compaction and shrink policies cap parked capacity at half the
	// pool plus per-run rounding, and below 2,048 cells the pool never
	// compacts.
	if poolCells > 4*liveCells+2048 {
		t.Fatalf("vertex pool holds %d cells for %d live vertices (free %d)", poolCells, liveCells, freeCells)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSlotReuseResetsTracking inserts a node into the slot a
// deleted node freed within the same step window and checks the dirty
// stamp cannot leak from the dead node to its successor. The graph
// hands out free slots LIFO, so the reuse is deterministic.
func TestStoreSlotReuseResetsTracking(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 16, cfg)
	victim := nw.Nodes()[3]
	slotBefore, _ := nw.real.SlotOf(victim)
	if err := nw.Delete(victim); err != nil {
		t.Fatal(err)
	}
	id := nw.FreshID()
	if err := nw.Insert(id, nw.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	slotAfter, ok := nw.real.SlotOf(id)
	if !ok {
		t.Fatal("inserted node has no slot")
	}
	if slotAfter != slotBefore {
		t.Fatalf("freed slot %d not recycled: the insert took slot %d", slotBefore, slotAfter)
	}
	// The fresh node must be tracked as dirty for its own insert step.
	found := false
	for _, u := range nw.st.dirtyList {
		found = found || u == id
	}
	if !found {
		t.Fatal("fresh node in a recycled slot missing from the dirty set")
	}
	if err := nw.Audit(AuditSampled); err != nil {
		t.Fatal(err)
	}
}

// storeBytes is the heap the store's own slices reserve: rows, the
// NewSim header column, the vertex arena and its free lists, the
// sampling mirror and the dirty list, counted from their capacities.
func storeBytes(st *state) int {
	b := cap(st.rows)*int(unsafe.Sizeof(slotRow{})) +
		cap(st.newRuns)*int(unsafe.Sizeof(vset{})) +
		cap(st.arena.buf)*int(unsafe.Sizeof(st.arena.buf[0])) +
		cap(st.nodeList)*int(unsafe.Sizeof(mirrorEntry{})) +
		cap(st.dirtyList)*int(unsafe.Sizeof(NodeID(0)))
	for _, fl := range st.arena.free {
		b += cap(fl) * 4
	}
	return b
}

// TestScaleEngineMemoryFootprint is the store's memory gate, on the
// network the benchmark's bare workloads grow by single joins
// (joinedEngine at 10^5 nodes, p/n about 2.6): the vertex arena's
// capacity per live vertex and the store's bytes per node, counted from
// the store's slice capacities, must stay within their budgets. Sets of
// one or two vertices live in the row, so the arena holds only the
// spilled sets' runs. The network is the same in every run, and it
// measures 2.60 cells per vertex and 96.7 B/node; the budgets leave 10%.
// The layout that gave every non-empty set a run of 8-byte cells read
// 4.99 and 176.6, failing both.
func TestScaleEngineMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("memory footprint gate skipped in -short mode")
	}
	const (
		cellsPerVertexBudget = 2.86
		bytesPerNodeBudget   = 106.0
	)
	nw := joinedEngine(t, 100_000, 20_000)
	st := &nw.st
	vertices := 0
	for s := range st.rows {
		vertices += int(st.rows[s].sim.n + st.newRuns[s].n)
	}
	cells := float64(cap(st.arena.buf)) / float64(vertices)
	perNode := float64(storeBytes(st)) / float64(st.size())
	t.Logf("%d nodes, %d vertices: arena %d cells (%d free, %.2f per vertex), store %.1f B/node",
		st.size(), vertices, cap(st.arena.buf), st.arena.freeCells, cells, perNode)
	if cells > cellsPerVertexBudget {
		t.Errorf("vertex arena holds %.2f cells per live vertex, budget %.2f", cells, cellsPerVertexBudget)
	}
	if perNode > bytesPerNodeBudget {
		t.Errorf("store holds %.1f B per node, budget %.1f", perNode, bytesPerNodeBudget)
	}
}
