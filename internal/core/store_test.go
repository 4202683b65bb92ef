package core

import (
	"math/rand"
	"testing"
)

// corruptLoad bumps u's stored load behind the engine's back — without
// touching counters, sets, or dirty marks — for audit-detection tests.
func (st *state) corruptLoad(u NodeID, d int) {
	st.load[st.slot(u)] += int32(d)
}

// loadSnapshot materializes the load table for state comparisons.
func (st *state) loadSnapshot() map[NodeID]int {
	out := make(map[NodeID]int, st.size())
	for _, u := range st.nodeList {
		out[u] = st.loadOf(u)
	}
	return out
}

// simSnapshot materializes every Sim set for state comparisons.
func (st *state) simSnapshot() map[NodeID][]Vertex {
	out := make(map[NodeID][]Vertex, st.size())
	for _, u := range st.nodeList {
		out[u] = append([]Vertex(nil), st.sim(u)...)
	}
	return out
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
	for s := range nw.st.simRuns {
		liveCells += int(nw.st.simRuns[s].n + nw.st.newRuns[s].n)
	}
	if liveCells == 0 {
		t.Fatal("no live vertex cells after churn")
	}
	// The pool may round runs up and keep some free-list slack, but it
	// must stay within a small constant of the live vertex count — the
	// compaction and shrink policies cap parked capacity at half the
	// pool plus per-run rounding.
	if poolCells > 4*liveCells+8*1024 {
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
