package graph

import "testing"

// TestEpochTracksEffectiveMutations: the epoch bumps exactly on calls
// that change the logical graph — node/edge additions and removals —
// and stays put across no-ops and pure reads.
func TestEpochTracksEffectiveMutations(t *testing.T) {
	g := New()
	e := g.Epoch()
	bump := func(what string, want bool, f func()) {
		t.Helper()
		before := g.Epoch()
		f()
		after := g.Epoch()
		if want && after == before {
			t.Fatalf("%s did not bump the epoch", what)
		}
		if !want && after != before {
			t.Fatalf("%s bumped the epoch %d -> %d", what, before, after)
		}
		e = after
	}
	bump("AddNode(new)", true, func() { g.AddNode(1) })
	bump("AddNode(existing)", false, func() { g.AddNode(1) })
	bump("AddEdge", true, func() { g.AddEdge(1, 2) })
	bump("AddEdgeMult(0)", false, func() { g.AddEdgeMult(1, 2, 0) })
	bump("AddEdgeMult", true, func() { g.AddEdgeMult(1, 2, 3) })
	bump("RemoveEdge", true, func() { g.RemoveEdge(1, 2) })
	bump("RemoveEdge(absent)", false, func() {
		if g.RemoveEdge(1, 99) {
			t.Fatal("removed an absent edge")
		}
	})
	bump("RemoveEdgeMult(absent node)", false, func() { g.RemoveEdgeMult(42, 43, 1) })
	bump("reads", false, func() {
		g.Degree(1)
		g.Multiplicity(1, 2)
		s, _ := g.SlotOf(1)
		g.RunAt(s)
		g.RandomNeighborStep(1, -1, 7)
		g.Nodes()
	})
	bump("RemoveNode", true, func() { g.RemoveNode(2) })
	bump("RemoveNode(absent)", false, func() { g.RemoveNode(2) })
	if e == 0 {
		t.Fatal("epoch never advanced")
	}
}

// TestSnapshotIsolation: a snapshot is a deep copy pinned at its epoch;
// later mutations of the source neither change the snapshot's content
// nor its epoch.
func TestSnapshotIsolation(t *testing.T) {
	g := cycle(8)
	snap, at := g.Snapshot()
	if at != g.Epoch() {
		t.Fatalf("snapshot epoch %d, source epoch %d", at, g.Epoch())
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 4)
	g.RemoveNode(2)
	if snap.Epoch() != at {
		t.Fatalf("snapshot epoch moved %d -> %d after source mutation", at, snap.Epoch())
	}
	if !snap.HasNode(2) || snap.HasEdge(0, 4) {
		t.Fatal("snapshot content tracked source mutations")
	}
	if snap.NumNodes() != 8 || snap.NumEdges() != 8 {
		t.Fatalf("snapshot shape %d nodes / %d edges, want 8/8", snap.NumNodes(), snap.NumEdges())
	}
	if g.Epoch() == at {
		t.Fatal("source epoch did not advance past the snapshot's")
	}
}
