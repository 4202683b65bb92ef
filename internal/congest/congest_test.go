package congest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func ringGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return g
}

func expanderish(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := ringGraph(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i += 2 {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[i+1]))
	}
	return g
}

func TestEngineSendToNonNeighborPanics(t *testing.T) {
	g := ringGraph(4)
	e := NewEngine(g)
	e.SetProgram(0, func(ctx *Ctx, inbox []Message) {
		defer func() {
			if recover() == nil {
				t.Error("Send to non-neighbor did not panic")
			}
		}()
		ctx.Send(2, "x", 0, 0, 0)
	})
	e.Run([]graph.NodeID{0}, 2)
}

func TestEnginePingPong(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	e := NewEngine(g)
	count := 0
	e.SetProgram(1, func(ctx *Ctx, inbox []Message) {
		if ctx.Round == 0 {
			ctx.Send(2, "ping", 0, 0, 0)
			return
		}
		count++
	})
	e.SetProgram(2, func(ctx *Ctx, inbox []Message) {
		for _, m := range inbox {
			if m.Kind == "ping" {
				ctx.Send(m.From, "pong", 0, 0, 0)
			}
		}
	})
	rounds := e.Run([]graph.NodeID{1}, 10)
	if count != 1 {
		t.Fatalf("pong not received, count=%d", count)
	}
	if e.Messages != 2 {
		t.Fatalf("messages=%d, want 2", e.Messages)
	}
	if rounds != 3 {
		t.Fatalf("rounds=%d, want 3", rounds)
	}
}

func TestWalkEngineMatchesDirect(t *testing.T) {
	// The engine-executed token walk and the direct walk must make
	// identical choices for identical seeds: same end node, hit flag and
	// step count. This is the fidelity bridge that lets the churn
	// experiments use the fast path.
	g := expanderish(64, 3)
	stop := func(u graph.NodeID, _ int32) bool { return u%7 == 3 }
	for seed := uint64(1); seed <= 25; seed++ {
		d := RandomWalkDirect(g, 5, -1, 30, seed, stop)
		e := NewEngine(g)
		w := RandomWalkEngine(e, 5, -1, 30, seed, stop)
		if d.End != w.End || d.Hit != w.Hit || d.Steps != w.Steps {
			t.Fatalf("seed %d: direct %+v vs engine %+v", seed, d, w)
		}
		if w.Steps != e.Messages {
			t.Fatalf("seed %d: engine messages %d != steps %d", seed, e.Messages, w.Steps)
		}
	}
}

func TestWalkRespectsExclusion(t *testing.T) {
	g := expanderish(40, 9)
	const excluded = graph.NodeID(11)
	for seed := uint64(0); seed < 40; seed++ {
		res := RandomWalkDirect(g, 0, excluded, 200, seed, func(graph.NodeID, int32) bool { return false })
		_ = res
		// Re-run recording the trajectory via the stop callback.
		visited := make(map[graph.NodeID]bool)
		RandomWalkDirect(g, 0, excluded, 200, seed, func(u graph.NodeID, s int32) bool {
			if ws, ok := g.SlotOf(u); !ok || ws != s {
				t.Fatalf("seed %d: stop saw slot %d for node %d, graph says %d", seed, s, u, ws)
			}
			visited[u] = true
			return false
		})
		if visited[excluded] {
			t.Fatalf("seed %d: walk visited excluded node", seed)
		}
	}
}

func TestWalkStopsAtStart(t *testing.T) {
	g := ringGraph(5)
	res := RandomWalkDirect(g, 2, -1, 10, 1, func(u graph.NodeID, _ int32) bool { return u == 2 })
	if !res.Hit || res.Steps != 0 || res.End != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestWalkStuckWhenOnlyNeighborExcluded(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	res := RandomWalkDirect(g, 1, 2, 10, 1, func(graph.NodeID, int32) bool { return false })
	if res.Hit || res.Steps != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestWalkWeightedByMultiplicity(t *testing.T) {
	// Node 0 has 9 parallel edges to 1 and 1 edge to 2: the walk's first
	// step should land on 1 roughly 90% of the time.
	g := graph.New()
	for i := 0; i < 9; i++ {
		g.AddEdge(0, 1)
	}
	g.AddEdge(0, 2)
	hits := 0
	const trials = 2000
	for seed := uint64(0); seed < trials; seed++ {
		res := RandomWalkDirect(g, 0, -1, 1, seed, func(u graph.NodeID, _ int32) bool { return u == 1 })
		if res.Hit {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("multiplicity weighting off: first-step fraction to 1 = %v", frac)
	}
}

func TestFloodAggregateCorrectSum(t *testing.T) {
	g := expanderish(50, 4)
	res := FloodAggregate(g, 7, func(u graph.NodeID) int64 { return int64(u) })
	want := int64(49 * 50 / 2)
	if res.Sum != want {
		t.Fatalf("sum = %d, want %d", res.Sum, want)
	}
	if res.Count != 50 {
		t.Fatalf("count = %d, want 50", res.Count)
	}
	if res.Rounds < g.Eccentricity(7) {
		t.Fatalf("rounds %d below eccentricity", res.Rounds)
	}
	// PIF costs at most one req+echo pair per directed edge.
	if res.Messages > 4*g.NumEdges() {
		t.Fatalf("messages %d exceed 4|E|=%d", res.Messages, 4*g.NumEdges())
	}
}

func TestFloodAggregateDeterministic(t *testing.T) {
	g := expanderish(64, 5)
	a := FloodAggregate(g, 0, func(u graph.NodeID) int64 { return 1 })
	b := FloodAggregate(g, 0, func(u graph.NodeID) int64 { return 1 })
	if a != b {
		t.Fatalf("non-deterministic flood: %+v vs %+v", a, b)
	}
}

func TestFloodAggregateSingleNode(t *testing.T) {
	g := graph.New()
	g.AddNode(3)
	res := FloodAggregate(g, 3, func(u graph.NodeID) int64 { return 42 })
	if res.Sum != 42 || res.Count != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestFloodAggregateQuickAgainstSpec(t *testing.T) {
	// Property: on random connected graphs, the flood sum equals the
	// direct sum and count equals n.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		g := expanderish(n, seed)
		res := FloodAggregate(g, graph.NodeID(rng.Intn(n)), func(u graph.NodeID) int64 {
			return int64(u) % 3
		})
		var want int64
		for _, u := range g.Nodes() {
			want += int64(u) % 3
		}
		return res.Sum == want && res.Count == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastCost(t *testing.T) {
	g := ringGraph(8)
	rounds, msgs := BroadcastCost(g, 0)
	if rounds != 4 {
		t.Fatalf("rounds = %d, want 4", rounds)
	}
	// Ring flood: initiator sends 2, everyone else forwards 1; the two
	// farthest-side duplicates still count: total = 2 + 7*1 = 9... each
	// non-initiator has fan 2, forwards fan-1 = 1. Total = 2 + 7 = 9.
	if msgs != 9 {
		t.Fatalf("messages = %d, want 9", msgs)
	}
}

func BenchmarkRandomWalkDirect(b *testing.B) {
	g := expanderish(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomWalkDirect(g, 0, -1, 40, uint64(i), func(graph.NodeID, int32) bool { return false })
	}
}
