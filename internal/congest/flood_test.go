package congest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// floodValue is the value function every differential flood check sums:
// distinct per node and occasionally zero, so Sum catches a node counted
// twice, missed, or credited to the wrong node.
func floodValue(u graph.NodeID) int64 { return int64(u)%7 + int64(u)/5 }

// floodBoth runs the direct form (through FloodAggregate) and the
// message-passing reference on g from initiator.
func floodBoth(g *graph.Graph, initiator graph.NodeID) (direct, engine AggregateResult) {
	direct = FloodAggregate(g, initiator, floodValue)
	engine = FloodAggregateEngine(NewEngine(g), initiator, floodValue)
	return direct, engine
}

func TestFloodDirectMatchesEngineTable(t *testing.T) {
	// want is the hand-derived result where one is given (zero value:
	// the engine is the only reference).
	cases := []struct {
		name      string
		build     func() *graph.Graph
		initiator graph.NodeID
		want      AggregateResult
	}{
		{name: "single node", build: func() *graph.Graph {
			g := graph.New()
			g.AddNode(3)
			return g
		}, initiator: 3, want: AggregateResult{Sum: floodValue(3), Count: 1, Rounds: 1}},
		{name: "self-loop only", build: func() *graph.Graph {
			g := graph.New()
			g.AddEdgeMult(4, 4, 3)
			return g
		}, initiator: 4, want: AggregateResult{Sum: floodValue(4), Count: 1, Rounds: 1}},
		{name: "absent initiator", build: func() *graph.Graph { return ringGraph(5) },
			initiator: 99, want: AggregateResult{Rounds: 1}},
		{name: "path from an end", build: func() *graph.Graph {
			g := graph.New()
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			return g
		}, initiator: 0, want: AggregateResult{Sum: floodValue(0) + floodValue(1) + floodValue(2), Count: 3, Rounds: 5, Messages: 4}},
		{name: "triangle", build: func() *graph.Graph { return ringGraph(3) },
			initiator: 0, want: AggregateResult{Sum: floodValue(0) + floodValue(1) + floodValue(2), Count: 3, Rounds: 5, Messages: 8}},
		{name: "star from center", build: func() *graph.Graph { return star(0, 4) }, initiator: 0,
			want: AggregateResult{Sum: sumValues(0, 1, 2, 3, 4), Count: 5, Rounds: 3, Messages: 8}},
		{name: "star from leaf", build: func() *graph.Graph { return star(0, 4) }, initiator: 1,
			want: AggregateResult{Sum: sumValues(0, 1, 2, 3, 4), Count: 5, Rounds: 5, Messages: 8}},
		{name: "multi-edges and loops", build: func() *graph.Graph {
			g := ringGraph(6)
			g.AddEdgeMult(0, 3, 4)
			g.AddEdgeMult(2, 2, 2)
			g.AddEdgeMult(1, 2, 3)
			return g
		}, initiator: 2},
		{name: "two components", build: func() *graph.Graph {
			g := ringGraph(4)
			g.AddEdge(10, 11)
			g.AddEdge(11, 12)
			return g
		}, initiator: 11},
		{name: "recycled slots", build: func() *graph.Graph {
			g := expanderish(12, 2)
			g.RemoveNode(3)
			g.RemoveNode(7)
			g.AddEdge(20, 0)
			g.AddEdge(21, 20)
			g.AddEdgeMult(21, 5, 2)
			return g
		}, initiator: 21},
		{name: "sparse ids", build: func() *graph.Graph {
			g := graph.New()
			big := graph.NodeID(1) << 40
			g.AddEdge(big, 2)
			g.AddEdge(2, big+9)
			g.AddEdge(big+9, big)
			g.AddEdge(big+9, 5)
			return g
		}, initiator: 5},
		{name: "expander", build: func() *graph.Graph { return expanderish(64, 7) }, initiator: 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			direct, engine := floodBoth(g, tc.initiator)
			if direct != engine {
				t.Fatalf("direct %+v != engine %+v", direct, engine)
			}
			if tc.want != (AggregateResult{}) && direct != tc.want {
				t.Fatalf("got %+v, want %+v", direct, tc.want)
			}
		})
	}
}

func star(center graph.NodeID, leaves int) *graph.Graph {
	g := graph.New()
	for i := 1; i <= leaves; i++ {
		g.AddEdge(center, center+graph.NodeID(i))
	}
	return g
}

func sumValues(ids ...graph.NodeID) int64 {
	var s int64
	for _, u := range ids {
		s += floodValue(u)
	}
	return s
}

// randomMultigraph builds a multigraph over a small id space with
// parallel edges, self-loops, a sprinkling of sparse (map-resolved)
// ids, and node deletions followed by fresh nodes that reuse the freed
// slots; it is usually disconnected.
func randomMultigraph(rng *rand.Rand) *graph.Graph {
	id := func() graph.NodeID {
		if rng.Intn(8) == 0 {
			return graph.NodeID(1)<<36 + graph.NodeID(rng.Intn(4))
		}
		return graph.NodeID(rng.Intn(32))
	}
	g := graph.New()
	for i, m := 0, rng.Intn(100); i < m; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			g.AddEdgeMult(id(), id(), 1+rng.Intn(3))
		case r < 7:
			u := id()
			g.AddEdge(u, u)
		case r < 8:
			g.RemoveNode(id())
		case r < 9:
			g.AddNode(id())
		default:
			g.RemoveEdge(id(), id())
		}
	}
	return g
}

func TestFloodDirectMatchesEngineQuick(t *testing.T) {
	// Property: on random multigraphs the direct form reports the
	// engine's Sum, Count, Rounds and Messages exactly, both through the
	// throwaway-scratch wrapper and through one Flood reused across
	// every graph and initiator (the warm-scratch path core takes).
	var warm Flood
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(rng)
		nodes := g.Nodes()
		initiator := graph.NodeID(rng.Intn(40)) // sometimes absent
		if len(nodes) > 0 && rng.Intn(4) != 0 {
			initiator = nodes[rng.Intn(len(nodes))]
		}
		direct, engine := floodBoth(g, initiator)
		if direct != engine {
			t.Logf("seed %d initiator %d: direct %+v != engine %+v", seed, initiator, direct, engine)
			return false
		}
		s, ok := g.SlotOf(initiator)
		if !ok {
			return true
		}
		odd := func(u graph.NodeID, _ int32) bool { return u%2 == 1 }
		got := warm.AggregateAt(g, initiator, s, odd)
		want := FloodAggregateEngine(NewEngine(g), initiator, func(u graph.NodeID) int64 { return int64(u % 2) })
		if got != want {
			t.Logf("seed %d initiator %d: warm %+v != engine %+v", seed, initiator, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestFloodSlotsMatchGraph(t *testing.T) {
	// The kernel hands count each reached node with its live slot, once.
	g := expanderish(40, 11)
	g.RemoveNode(9)
	g.AddEdge(50, 8)
	seen := map[graph.NodeID]bool{}
	var f Flood
	s, _ := g.SlotOf(50)
	f.AggregateAt(g, 50, s, func(u graph.NodeID, us int32) bool {
		if ws, ok := g.SlotOf(u); !ok || ws != us {
			t.Fatalf("count saw slot %d for node %d, graph says %d", us, u, ws)
		}
		if seen[u] {
			t.Fatalf("node %d counted twice", u)
		}
		seen[u] = true
		return false
	})
	if len(seen) != g.NumNodes() {
		t.Fatalf("count saw %d nodes, graph has %d", len(seen), g.NumNodes())
	}
}

func TestFloodZeroAllocs(t *testing.T) {
	g := expanderish(1024, 1)
	s, _ := g.SlotOf(0)
	var f Flood
	pred := func(u graph.NodeID, _ int32) bool { return u%3 == 0 }
	f.AggregateAt(g, 0, s, pred) // warm the scratch
	var res AggregateResult
	if a := testing.AllocsPerRun(50, func() { res = f.AggregateAt(g, 0, s, pred) }); a != 0 {
		t.Fatalf("warm flood allocates %.1f times per op, want 0", a)
	}
	if res.Count != 1024 {
		t.Fatalf("flood reached %d of 1024 nodes", res.Count)
	}
}

// FuzzFloodAggregate decodes a graph-op sequence and an initiator from
// the fuzz input and asserts that the direct form and the engine agree
// on all four fields. Byte 0 is the initiator; each following 3-byte
// group (k, a, b) is one op on ids a%40 and b%40: k%8 < 4 adds the edge
// {a, b} with multiplicity 1+(k>>3)%3 (a self-loop when a == b), 4
// removes node a (freeing its slot for reuse), 5 adds node a, 6 removes
// one {a, b} edge, and 7 adds the edge {a, b+40}. The committed seed
// corpus (testdata/fuzz/FuzzFloodAggregate) holds a node whose only
// edge is a self-loop, a star flooded from a leaf, two components, and
// a node that reuses a deleted node's slot.
func FuzzFloodAggregate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		initiator := graph.NodeID(data[0] % 48)
		g := graph.New()
		ops := data[1:]
		for i := 0; i+2 < len(ops) && i < 3*256; i += 3 {
			k := ops[i]
			a, b := graph.NodeID(ops[i+1]%40), graph.NodeID(ops[i+2]%40)
			switch k % 8 {
			case 4:
				g.RemoveNode(a)
			case 5:
				g.AddNode(a)
			case 6:
				g.RemoveEdge(a, b)
			case 7:
				g.AddEdge(a, b+40)
			default:
				g.AddEdgeMult(a, b, 1+int(k>>3)%3)
			}
		}
		direct, engine := floodBoth(g, initiator)
		if direct != engine {
			t.Fatalf("initiator %d: direct %+v != engine %+v", initiator, direct, engine)
		}
	})
}

// floodSink keeps BenchmarkFloodAggregate's results alive.
var floodSink AggregateResult

// BenchmarkFloodAggregate times one size-count flood over a 1024-node
// expander-like graph: the direct form on warm scratch (the form core
// runs; 0 allocs/op) and the message-passing engine it is proven equal
// to.
func BenchmarkFloodAggregate(b *testing.B) {
	g := expanderish(1024, 1)
	one := func(graph.NodeID) int64 { return 1 }
	b.Run("direct/n=1024", func(b *testing.B) {
		s, _ := g.SlotOf(0)
		all := func(graph.NodeID, int32) bool { return true }
		var f Flood
		f.AggregateAt(g, 0, s, all)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			floodSink = f.AggregateAt(g, 0, s, all)
		}
	})
	b.Run("engine/n=1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			floodSink = FloodAggregateEngine(NewEngine(g), 0, one)
		}
	})
}
