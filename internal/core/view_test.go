package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// checkDerivedReads compares every live node's derived reads with its
// run in g, an overlay holding the same node set: the row rowAt derives
// (its ids, multiplicities and self cell), distinctDegreeAt and degreeAt,
// smallestNeighbor (the run's first cell other than the node), and
// hopRows' hops against g.RandomNeighborStepAt for words random words
// under every exclusion in {-1, each neighbor}, including the slot a hop
// hands back. The reads are forced onto the derived path even while a
// view is kept, over simSlot resolved into a fresh slice (a kept view
// releases it) that is dropped again afterwards; without a view they run
// on the engine's own simSlot, which this leaves untouched, and nothing
// here materializes a view.
func checkDerivedReads(nw *Network, g *graph.Graph, words int) error {
	if nw.viewKept {
		nw.viewKept = false
		nw.resolveSimSlots()
		defer func() {
			nw.viewKept, nw.simSlot = true, nil
			nw.dropCached(-1) // rows a kept view does not keep current
		}()
	}
	rng := rand.New(rand.NewSource(int64(nw.Size())))
	for _, e := range nw.st.nodeList {
		u, su := e.id, e.slot
		gs, ok := g.SlotOf(u)
		if !ok {
			return fmt.Errorf("node %d missing from the overlay", u)
		}
		var cells []graph.Edge // the derived row as cells, U holding the neighbor
		row := slices.Clone(nw.rowAt(u, su))
		slices.Sort(row)
		for _, v := range row {
			if n := len(cells); n > 0 && cells[n-1].U == v {
				cells[n-1].Mult++
			} else {
				cells = append(cells, graph.Edge{U: v, Mult: 1})
			}
		}
		run := g.RunAt(gs)
		if len(run) != len(cells) {
			return fmt.Errorf("node %d: derived row has %d cells %v, the overlay's run %d %+v", u, len(cells), cells, len(run), run)
		}
		for i, c := range cells {
			if c.U != run[i].V || c.Mult != int(run[i].M) {
				return fmt.Errorf("node %d: derived cell %d is %d x%d, the overlay's %d x%d", u, i, c.U, c.Mult, run[i].V, run[i].M)
			}
		}
		if got, want := nw.distinctDegreeAt(u, su), g.DistinctDegreeAt(gs); got != want {
			return fmt.Errorf("node %d: derived distinct degree %d, overlay %d", u, got, want)
		}
		if got, want := nw.degreeAt(u, su), g.Degree(u); got != want {
			return fmt.Errorf("node %d: derived degree %d, overlay %d", u, got, want)
		}
		first, excludes := NodeID(-1), []NodeID{-1}
		for _, c := range run {
			if c.V != u && first < 0 {
				first = c.V
			}
			excludes = append(excludes, c.V)
		}
		if v, vs := nw.smallestNeighbor(u, su, nil); v != first || v >= 0 && vs != nw.st.slot(v) {
			return fmt.Errorf("node %d: derived smallest neighbor (%d, slot %d), overlay %d", u, v, vs, first)
		}
		for _, exclude := range excludes {
			for k := 0; k < words; k++ {
				r := rng.Uint64()
				want, _, wok := g.RandomNeighborStepAt(gs, exclude, r)
				got, gotSlot, gok := hopRows{nw}.Step(u, su, exclude, r)
				if got != want || gok != wok || gok && gotSlot != nw.st.slot(got) {
					return fmt.Errorf("node %d, exclude %d, r %#x: derived hop (%d, slot %d, %v), overlay (%d, %v)", u, exclude, r, got, gotSlot, gok, want, wok)
				}
			}
		}
	}
	return nil
}

// edgeMirror replays an edge observer's batches onto a graph of its
// own, as a subscriber mirroring the overlay does. err keeps the first
// batch entry the mirror could not apply.
type edgeMirror struct {
	g   *graph.Graph
	err error
}

// mirrorEdges registers an edge observer on nw that feeds a new mirror,
// seeded with nw's overlay as the full rebuild derives it. It keeps no
// view, so nothing else observes the overlay.
func mirrorEdges(nw *Network) *edgeMirror {
	m := &edgeMirror{g: nw.RecomputeGraph()}
	nw.SetEdgeObserver(func(step int, deltas []graph.EdgeDelta) {
		for _, d := range deltas {
			if d.Delta > 0 {
				m.g.AddEdgeMult(d.U, d.V, d.Delta)
			} else if got := m.g.RemoveEdgeMult(d.U, d.V, -d.Delta); got != -d.Delta && m.err == nil {
				m.err = fmt.Errorf("step %d removes %d of edge {%d,%d}, the mirror holds %d", step, -d.Delta, d.U, d.V, got)
			}
		}
	})
	return m
}

// matches compares the mirror's edge multiset with want's. Departed
// nodes linger in the mirror without edges, so node sets are not
// compared.
func (m *edgeMirror) matches(want *graph.Graph) error {
	if m.err != nil {
		return m.err
	}
	got, exp := m.g.Edges(), want.Edges()
	for i := 0; i < max(len(got), len(exp)); i++ {
		switch {
		case i == len(got):
			return fmt.Errorf("mirror lacks edge %+v", exp[i])
		case i == len(exp):
			return fmt.Errorf("mirror holds extra edge %+v", got[i])
		case got[i] != exp[i]:
			return fmt.Errorf("mirror holds edge %+v where the rebuild has %+v", got[i], exp[i])
		}
	}
	return nil
}

// TestSnapshotDerivesWithoutView takes Snapshots of networks that keep
// no view: a churned Staggered joinedEngine and a network paused
// mid-rebuild (NewSim holdings and pending intermediate edges in its
// rows). Each must be a valid graph holding the full rebuild's edges on
// the live slot table, at the live epoch, and leave no view kept and
// the overlay unobserved; the derived reads it passes through must
// still match the rebuild, and so must a second Snapshot after more
// churn, while the first stays as it was. Once a view is kept, the
// Snapshot is a copy of it, not the view itself.
func TestSnapshotDerivesWithoutView(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   func(t *testing.T) *Network
	}{
		{"staggered-joined", func(t *testing.T) *Network { return joinedEngine(t, 2048, 2000) }},
		{"mid-rebuild", midRebuildEngine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := tc.nw(t)
			check := func(g *graph.Graph, epoch uint64) {
				t.Helper()
				if nw.viewKept || nw.observed {
					t.Fatalf("Snapshot left viewKept %v, observed %v", nw.viewKept, nw.observed)
				}
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := graphsEqual(g, nw.RecomputeGraph()); err != nil {
					t.Fatalf("derived snapshot differs from the rebuild: %v", err)
				}
				if live := nw.real.Epoch(); epoch != live || g.Epoch() != live {
					t.Fatalf("snapshot epoch %d (graph %d), live %d", epoch, g.Epoch(), live)
				}
				for _, e := range nw.st.nodeList {
					if s, ok := g.SlotOf(e.id); !ok || s != e.slot {
						t.Fatalf("node %d at slot %d in the snapshot, %d live", e.id, s, e.slot)
					}
				}
				if err := checkDerivedReads(nw, nw.RecomputeGraph(), 2); err != nil {
					t.Fatalf("after Snapshot: %v", err)
				}
			}
			if nw.viewKept {
				t.Fatal("the network keeps a view: Snapshot would not derive")
			}
			first, epoch := nw.Snapshot()
			check(first, epoch)
			want := first.Clone()
			churnQuiet(t, nw, 20)
			check(nw.Snapshot())
			if err := graphsEqual(first, want); err != nil {
				t.Fatalf("churn changed an earlier snapshot: %v", err)
			}
			g := nw.Graph()
			kept, epoch := nw.Snapshot()
			if kept == g || epoch != g.Epoch() {
				t.Fatalf("kept-view snapshot: same graph %v, epoch %d against %d", kept == g, epoch, g.Epoch())
			}
			if err := graphsEqual(kept, g); err != nil {
				t.Fatalf("kept-view snapshot differs from the view: %v", err)
			}
		})
	}
}

// TestDerivedReadsMatchView pins the engine's derived reads to the view
// they stand in for: on a churned Staggered joinedEngine, a network
// paused mid-rebuild (NewSim holdings and pending intermediate edges in
// its rows) and a Simplified one just past a one-step rebuild, the view
// is materialized and every live node's derived row, distinct degree,
// degree, smallest neighbor and hops (64 words under every exclusion)
// must read exactly its view run.
func TestDerivedReadsMatchView(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   func(t *testing.T) *Network
	}{
		{"staggered-joined", func(t *testing.T) *Network { return joinedEngine(t, 2048, 4000) }},
		{"mid-rebuild", midRebuildEngine},
		{"simplified-past-rebuild", pastOneStepRebuild},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := tc.nw(t)
			if err := checkDerivedReads(nw, nw.Graph(), 64); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMidStepReadsMatchRebuild checks, inside every vertex transfer of
// a churn run (a callback runs mid-step and, during an insert, with its
// temporary attach edge in place), that both ends' and the temporary
// edge's ends' cells, degrees and distinct degrees read the full rebuild
// plus that edge. It runs without a view, where the cells are derived
// from the mapping (rowCells), and with one kept, whose runs are edited
// with every change.
func TestMidStepReadsMatchRebuild(t *testing.T) {
	for _, observe := range []bool{false, true} {
		nw := mustNew(t, 32, DefaultConfig())
		if observe {
			nw.Graph()
		}
		seen := 0
		nw.SetTransferObserver(func(_ Vertex, from, to NodeID) {
			want := nw.expectedRealGraph()
			ends := []NodeID{from, to}
			if nw.tmp.on {
				want.AddEdge(nw.tmp.a, nw.tmp.b)
				ends = append(ends, nw.tmp.a, nw.tmp.b)
				seen++
			}
			for _, u := range ends {
				s, ok := nw.real.SlotOf(u)
				if !ok {
					continue
				}
				var rebuilt []graph.RunCell
				if ws, ok := want.SlotOf(u); ok {
					rebuilt = want.RunAt(ws)
				}
				var cells []graph.RunCell
				if observe {
					cells = nw.real.RunAt(s)
				} else {
					cells = nw.rowCells(u, s).cells
				}
				if len(cells) != len(rebuilt) {
					t.Fatalf("view %v, node %d mid-step: cells %+v, rebuild %+v", observe, u, cells, rebuilt)
				}
				for i, c := range cells {
					if ws, _ := nw.real.SlotOf(c.V); c.V != rebuilt[i].V || c.M != rebuilt[i].M || c.S != ws {
						t.Fatalf("view %v, node %d mid-step: cell %d is %+v, rebuild %d x%d", observe, u, i, c, rebuilt[i].V, rebuilt[i].M)
					}
				}
				if got, w := nw.distinctDegreeAt(u, s), want.DistinctDegree(u); got != w {
					t.Fatalf("view %v, node %d mid-step: distinct degree %d, rebuild %d", observe, u, got, w)
				}
				if got, w := nw.degreeAt(u, s), want.Degree(u); got != w {
					t.Fatalf("view %v, node %d mid-step: degree %d, rebuild %d", observe, u, got, w)
				}
			}
		})
		churnQuiet(t, nw, 200)
		if seen == 0 {
			t.Fatalf("view %v: no transfer ran while a temporary edge existed", observe)
		}
	}
}

// TestOneStepRebuildWithoutView runs a one-step inflation inside a step
// of a Staggered network that keeps no view (joinedEngine, p/n about
// 2), as Staggered's walk-exhaustion fallback does, with an edge
// observer feeding a mirror. The commit must find no view kept: the
// broadcast runs on a derived copy, and the netted diff goes to the row
// caches and the edge log. After the step the mirror must equal the full
// rebuild, the derived reads and the invariants must hold, nothing may
// have observed the overlay, and a view is kept exactly when the mean
// load steers one. A twin driven the same way after one Graph() call,
// whose broadcast and diff run on the kept view, must record the same
// StepMetrics for the step.
func TestOneStepRebuildWithoutView(t *testing.T) {
	drive := func(observe bool) (*Network, StepMetrics) {
		t.Helper()
		nw := joinedEngine(t, 512, 200)
		if nw.stag != nil || nw.viewKept {
			t.Fatalf("set-up: stagger in flight %v, view kept %v", nw.stag != nil, nw.viewKept)
		}
		mirror := mirrorEdges(nw)
		if observe {
			nw.Graph()
		}
		commits := 0
		nw.SetRebuildObserver(func(int64) {
			commits++
			if nw.viewKept != observe {
				t.Errorf("observed %v: view kept %v at the commit", observe, nw.viewKept)
			}
		})
		u := nw.Coordinator()
		nw.beginStep(OpInsert, u)
		nw.simplifiedInflate(u, -1)
		nw.step.Recovery = RecoveryInflate
		st := nw.endStep()
		if commits != 1 {
			t.Fatalf("observed %v: %d rebuild commits, want 1", observe, commits)
		}
		want := nw.RecomputeGraph()
		if err := mirror.matches(want); err != nil {
			t.Fatalf("observed %v: edge events: %v", observe, err)
		}
		if err := checkDerivedReads(nw, want, 2); err != nil {
			t.Fatalf("observed %v: %v", observe, err)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("observed %v: %v", observe, err)
		}
		return nw, st
	}
	nw, got := drive(false)
	if kept := nw.P() > viewOnLoad*int64(nw.Size()); nw.observed || nw.viewKept != kept {
		t.Fatalf("after the step at p=%d, n=%d: observed %v, view kept %v, want false, %v", nw.P(), nw.Size(), nw.observed, nw.viewKept, kept)
	}
	if _, want := drive(true); got != want {
		t.Fatalf("the rebuild step recorded %+v without a view, %+v on a kept view", got, want)
	}
}

// TestCoordinatorDegreeAfterDroppedVertexZero drives a Staggered
// rebuild into its second phase past vertex 0, whose dropped entry in
// simOf keeps naming its old simulator, deletes that node, and runs more
// operations: the coordinator notify must charge 0 for the missing
// node's degree, as the overlay's DistinctDegree of an absent node
// reads, instead of failing to resolve it.
func TestCoordinatorDegreeAfterDroppedVertexZero(t *testing.T) {
	nw := joinedEngine(t, 2048, 0)
	rng := rand.New(rand.NewSource(41))
	for nw.stag == nil || nw.stag.phase != 2 || !nw.stag.dropped(0) {
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	old := nw.simOf[0]
	if err := nw.Delete(old); err != nil {
		t.Fatal(err)
	}
	if nw.stag == nil && nw.simOf[0] == old {
		t.Fatal("the rebuild committed with vertex 0 at a deleted node")
	}
	for i := 0; i < 10; i++ {
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCeilLog2MatchesFloat checks the integer walk length against the
// float form it replaced for every n in [2, 2^22].
func TestCeilLog2MatchesFloat(t *testing.T) {
	for n := 2; n <= 1<<22; n++ {
		if got, want := ceilLog2(n), int(math.Ceil(math.Log2(float64(n)))); got != want {
			t.Fatalf("ceilLog2(%d) = %d, math.Ceil(math.Log2) = %d", n, got, want)
		}
	}
}

// TestNetLogMatchesSummedPairs nets random logs of every length class
// NetLog treats apart — empty, one entry, the Shell sort's short and
// long inputs up to shortEdgeLog, and one entry past it, which
// slices.SortFunc sorts — and compares each with a map that sums every
// pair's changes: the same pairs, ascending by (U, V), none zero.
func TestNetLogMatchesSummedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 33, 1000, shortEdgeLog, shortEdgeLog + 1} {
		ids := NodeID(1 + n/4) // few enough ids that pairs repeat and cancel
		log := make([]graph.EdgeDelta, n)
		for i := range log {
			u, v := NodeID(rng.Int63n(int64(ids))), NodeID(rng.Int63n(int64(ids)))
			log[i] = graph.EdgeDelta{U: min(u, v), V: max(u, v), Delta: 1 - 2*rng.Intn(2)}
		}
		want := sumPairs(log)
		if got := NetLog(log); !slices.Equal(got, want) {
			t.Fatalf("n=%d: NetLog returned %d pairs, the summed map %d, or they differ", n, len(got), len(want))
		}
	}
}

// sumPairs nets log the slow way, leaving it untouched: a map sums each
// pair's changes, and the non-zero sums come back ascending by (U, V).
func sumPairs(log []graph.EdgeDelta) []graph.EdgeDelta {
	sums := map[[2]NodeID]int{}
	for _, d := range log {
		sums[[2]NodeID{d.U, d.V}] += d.Delta
	}
	var net []graph.EdgeDelta
	for k, d := range sums {
		if d != 0 {
			net = append(net, graph.EdgeDelta{U: k[0], V: k[1], Delta: d})
		}
	}
	slices.SortFunc(net, func(a, b graph.EdgeDelta) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return net
}

// TestEdgeLogNetsToObserverDiff drives two identical networks in
// lockstep, one handing over raw edge logs (SetEdgeLogObserver) and one
// netted diffs (SetEdgeObserver): a Staggered pair through inserts
// until a stagger has started and finished, then deletes until a
// deflation starts, and a Simplified pair through a one-step inflation
// and a one-step deflation the same way. After every step the raw log,
// netted by sumPairs, must be the netted observer's diff for the same
// step, and a step whose log nets to nothing must not call it. Every raw
// entry must be a non-zero change with U <= V, and some log must hold
// more entries than its diff, or netting was never exercised.
func TestEdgeLogNetsToObserverDiff(t *testing.T) {
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			raw, netted := mustNew(t, 16, cfg), mustNew(t, 16, cfg)
			var log, diff []graph.EdgeDelta
			var logStep, diffStep int
			raw.SetEdgeLogObserver(func(step int, l []graph.EdgeDelta) { logStep, log = step, l })
			netted.SetEdgeObserver(func(step int, d []graph.EdgeDelta) { diffStep, diff = step, d })
			rng := rand.New(rand.NewSource(5))
			cancels := false
			step := func(i int, insert bool) {
				log, diff, logStep, diffStep = nil, nil, 0, 0
				var errRaw, errNetted error
				if insert {
					id, at := raw.FreshID(), raw.SampleNode(rng)
					errRaw, errNetted = raw.Insert(id, at), netted.Insert(id, at)
				} else {
					v := raw.SampleNode(rng)
					errRaw, errNetted = raw.Delete(v), netted.Delete(v)
				}
				if errRaw != nil || errNetted != nil {
					t.Fatalf("op %d: %v, %v", i, errRaw, errNetted)
				}
				for _, d := range log {
					if d.Delta == 0 || d.U > d.V {
						t.Fatalf("op %d: raw entry %+v", i, d)
					}
				}
				want := sumPairs(log)
				switch {
				case len(want) == 0 && diffStep != 0:
					t.Fatalf("op %d: the raw log nets to nothing, the netted observer got %d pairs", i, len(diff))
				case len(want) > 0 && (logStep != raw.LastStep().Step || diffStep != logStep):
					t.Fatalf("op %d: raw log of step %d, diff of step %d, last step %d", i, logStep, diffStep, raw.LastStep().Step)
				case !slices.Equal(diff, want):
					t.Fatalf("op %d (step %d): the diff holds %d pairs, the raw log %d entries netting to %d pairs, or they differ", i, logStep, len(diff), len(log), len(want))
				}
				cancels = cancels || len(log) > len(want)
			}
			grown, shrunk := func(tt Totals) bool { return tt.StaggerFinishes > 0 }, func(tt Totals) bool { return tt.DeflateEvents > 0 }
			if mode == Simplified {
				grown = func(tt Totals) bool { return tt.InflateEvents > 0 }
			}
			i := 0
			for ; !grown(raw.Totals()); i++ {
				if i == 4000 {
					t.Fatal("no rebuild committed in 4000 inserts")
				}
				step(i, true)
			}
			for ; !shrunk(raw.Totals()); i++ {
				if raw.Size() <= 8 {
					t.Fatal("shrank to 8 nodes without a deflation")
				}
				step(i, false)
			}
			if !cancels {
				t.Fatal("no step's raw log held more entries than its diff")
			}
		})
	}
}
