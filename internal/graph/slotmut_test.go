package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSlotMutatorsMatchIDForms: the slot-native mutators (AddEdgeMultAt
// / RemoveEdgeMultAt) are exact drop-ins for the id-keyed forms — same
// structure, same removal counts, same epoch discipline — and the far
// endpoint's slot they return is the one SlotOf reports (-1 when a
// removal finds no edge), across a randomized churn script that
// exercises in-place multiplicity bumps, run growth, entry removal,
// node removal, and arena compaction.
func TestSlotMutatorsMatchIDForms(t *testing.T) {
	a, b := New(), New()
	const n = 48
	for u := NodeID(0); u < n; u++ {
		a.AddNode(u)
		b.AddNode(u)
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 5000; step++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(3)
		su, ok := b.SlotOf(u)
		if !ok {
			t.Fatalf("step %d: node %d has no slot", step, u)
		}
		sv, _ := b.SlotOf(v)
		if rng.Float64() < 0.55 {
			// Every other addition passes v's slot, the rest let the graph
			// resolve it: both forms must land the same edge.
			hint := int32(-1)
			if step%2 == 0 {
				hint = sv
			}
			a.AddEdgeMult(u, v, k)
			if got := b.AddEdgeMultAt(su, u, v, hint, k); got != sv {
				t.Fatalf("step %d: AddEdgeMultAt(%d,%d,%d) returned slot %d, SlotOf says %d", step, u, v, k, got, sv)
			}
		} else {
			ra := a.RemoveEdgeMult(u, v, k)
			rb, got := b.RemoveEdgeMultAt(su, u, v, k)
			if ra != rb {
				t.Fatalf("step %d: RemoveEdgeMult(%d,%d,%d)=%d, RemoveEdgeMultAt=%d", step, u, v, k, ra, rb)
			}
			want := int32(-1)
			if rb > 0 {
				want = sv
			}
			if got != want {
				t.Fatalf("step %d: RemoveEdgeMultAt(%d,%d,%d) returned slot %d, want %d", step, u, v, k, got, want)
			}
		}
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("edge multisets diverged between id-keyed and slot-native mutators")
	}
	if a.NumEdges() != b.NumEdges() || a.Epoch() != b.Epoch() {
		t.Fatalf("edges/epoch diverged: (%d,%d) vs (%d,%d)", a.NumEdges(), a.Epoch(), b.NumEdges(), b.Epoch())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersAreReadOnly is the -race regression for the
// removed one-entry id→slot mutation cache (lastID/lastSlot): that
// cache turned every id-keyed lookup into a hidden write, so concurrent
// readers raced each other. The package documents its read paths as
// pure, so readers must share a quiescent graph freely: this hammers every id-keyed and slot-keyed read path
// from many goroutines at once and fails under -race if any of them
// mutates shared state.
func TestConcurrentReadersAreReadOnly(t *testing.T) {
	g := New()
	const n = 64
	for u := NodeID(0); u < n; u++ {
		g.AddNode(u)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 600; i++ {
		g.AddEdgeMult(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1+rng.Intn(2))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				u := NodeID(r.Intn(n))
				v := NodeID(r.Intn(n))
				_ = g.Degree(u)
				_ = g.Multiplicity(u, v)
				_ = g.HasEdge(u, v)
				_ = g.Neighbors(u)
				if s, ok := g.SlotOf(u); ok {
					for _, c := range g.RunAt(s) {
						_ = g.Degree(c.V)
					}
					_, _, _ = g.RandomNeighborStepAt(s, -1, r.Uint64())
				}
				_, _ = g.RandomNeighborStep(u, -1, r.Uint64())
			}
		}(int64(100 + w))
	}
	wg.Wait()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
