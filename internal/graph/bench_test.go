package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// contractionShaped builds an n-node multigraph with the degree profile
// the DEX contraction produces (a few distinct neighbors, occasional
// parallel edges and self-loops).
func contractionShaped(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n))
		g.AddEdge(NodeID(i), NodeID(rng.Intn(n)))
		if i%8 == 0 {
			g.AddEdge(NodeID(i), NodeID(i))
		}
	}
	return g
}

// BenchmarkWalkHop measures one multiplicity-weighted walk step through
// the arena. The acceptance bar for the flat-adjacency tentpole is 0
// allocs/op here (the map-of-maps WeightedNeighbors path allocated two
// slices per hop); CI runs this at -benchtime 1x as a smoke check and
// the alloc_test.go gates fail the suite outright on regression.
func BenchmarkWalkHop(b *testing.B) {
	g := contractionShaped(4096, 1)
	state := uint64(99)
	cs, ok := g.SlotOf(0)
	if !ok {
		b.Fatal("start node missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state += 0x9e3779b97f4a7c15
		// Slot-native hop, as the recovery walks run it: the start slot is
		// resolved once and every step yields the next slot, so steady-state
		// walking never touches the id->slot map.
		_, next, ok := g.RandomNeighborStepAt(cs, -1, state)
		if !ok {
			b.Fatal("walk stuck")
		}
		cs = next
	}
}

// BenchmarkWalkHopRef is the map-of-maps baseline for BenchmarkWalkHop:
// the same walk over Ref, paying the two-slice WeightedNeighbors
// materialization the arena retired. Tracked in CI so the speedup stays
// visible across PRs.
func BenchmarkWalkHopRef(b *testing.B) {
	arena := contractionShaped(4096, 1)
	g := NewRef()
	for _, e := range arena.Edges() {
		g.AddEdgeMult(e.U, e.V, e.Mult)
	}
	state := uint64(99)
	cur := NodeID(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state += 0x9e3779b97f4a7c15
		next, ok := g.RandomNeighborStep(cur, -1, state)
		if !ok {
			b.Fatal("walk stuck")
		}
		cur = next
	}
}

// BenchmarkGraphChurn measures steady-state edge churn on the arena: one
// add + one remove per op against a warm free list.
func BenchmarkGraphChurn(b *testing.B) {
	g := contractionShaped(4096, 2)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := NodeID(rng.Intn(4096)), NodeID(rng.Intn(4096))
		g.AddEdge(u, v)
		g.RemoveEdge(u, v)
	}
}

// BenchmarkFindNbr measures one membership probe through findNbr at the
// degrees that exercise each of its regimes: 4 (short scan only), 32
// (one binary halving to a 16-cell segment, then the 4-wide drain), 256
// (four halvings, then the drain). Probe targets cycle through every run position plus misses, so
// the number reflects the average cell, not a lucky hot one.
func BenchmarkFindNbr(b *testing.B) {
	for _, deg := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			g := New()
			for i := 1; i <= deg; i++ {
				g.AddEdge(0, NodeID(2*i))
			}
			s, _ := g.SlotOf(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Odd ids miss between cells, even ids hit: both paths stay hot.
				if _, ok := g.findNbr(s, NodeID(i%(2*deg+2)+1)); ok == (i%2 == 0) {
					_ = ok
				}
			}
		})
	}
}

// BenchmarkGraphChurnRef is the same churn against the map-of-maps
// oracle.
func BenchmarkGraphChurnRef(b *testing.B) {
	arena := contractionShaped(4096, 2)
	g := NewRef()
	for _, e := range arena.Edges() {
		g.AddEdgeMult(e.U, e.V, e.Mult)
	}
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := NodeID(rng.Intn(4096)), NodeID(rng.Intn(4096))
		g.AddEdge(u, v)
		g.RemoveEdge(u, v)
	}
}
