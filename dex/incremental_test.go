package dex_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/dex"
)

// mirrorGraph applies EdgesChanged deltas to a standalone copy of the
// overlay, the way a transport or replica subscriber would.
type mirrorGraph struct {
	g *dex.Graph
}

func newMirror(src *dex.Graph) *mirrorGraph { return &mirrorGraph{g: src.Clone()} }

// checkNetted fails t unless deltas keeps the batch contract
// EdgesChanged documents: no zero deltas, U <= V, and pairs strictly
// ascending by (U, V), so no pair repeats.
func checkNetted(t *testing.T, deltas []dex.EdgeDelta) {
	t.Helper()
	for i, d := range deltas {
		if d.Delta == 0 {
			t.Fatalf("zero delta for edge {%d,%d}", d.U, d.V)
		}
		if d.U > d.V {
			t.Fatalf("delta for edge {%d,%d} has U > V", d.U, d.V)
		}
		if i > 0 {
			if p := deltas[i-1]; p.U > d.U || p.U == d.U && p.V >= d.V {
				t.Fatalf("batch not strictly ascending: {%d,%d} then {%d,%d}", p.U, p.V, d.U, d.V)
			}
		}
	}
}

// apply replays one EdgesChanged batch onto the mirror, checking the
// batch contract on the way (checkNetted).
func (m *mirrorGraph) apply(t *testing.T, deltas []dex.EdgeDelta) {
	t.Helper()
	checkNetted(t, deltas)
	for _, d := range deltas {
		for k := d.Delta; k > 0; k-- {
			m.g.AddEdge(d.U, d.V)
		}
		for k := d.Delta; k < 0; k++ {
			if !m.g.RemoveEdge(d.U, d.V) {
				t.Fatalf("delta removes absent edge {%d,%d}", d.U, d.V)
			}
		}
	}
}

// sameEdgeMultiset compares the edge multisets of two graphs (deleted
// nodes linger as isolated nodes in a delta-replayed mirror, so node
// sets are compared via the live graph's side only).
func sameEdgeMultiset(t *testing.T, live, mirror *dex.Graph, step int) {
	t.Helper()
	if live.NumEdges() != mirror.NumEdges() {
		t.Fatalf("step %d: live has %d edges, mirror %d", step, live.NumEdges(), mirror.NumEdges())
	}
	for _, e := range live.Edges() {
		if m := mirror.Multiplicity(e.U, e.V); m != e.Mult {
			t.Fatalf("step %d: edge {%d,%d} live multiplicity %d, mirror %d", step, e.U, e.V, e.Mult, m)
		}
	}
}

// TestEdgeEventsReplayMirrorsGraph is the event-layer differential test:
// replaying the batched EdgesChanged diffs onto a copy of the overlay
// keeps the copy identical to the live graph through type-1 recovery,
// staggered rebuilds, and one-step simplified rebuilds.
func TestEdgeEventsReplayMirrorsGraph(t *testing.T) {
	for _, mode := range []dex.Mode{dex.Staggered, dex.Simplified} {
		t.Run(mode.String(), func(t *testing.T) {
			nw, err := dex.New(
				dex.WithInitialSize(16),
				dex.WithMode(mode),
				dex.WithSeed(11),
				dex.WithEdgeEvents(true),
			)
			if err != nil {
				t.Fatal(err)
			}
			mirror := newMirror(nw.Graph())
			batches, rebuilds := 0, 0
			cancel := nw.Subscribe(func(ev dex.Event) {
				switch e := ev.(type) {
				case dex.EdgesChanged:
					batches++
					mirror.apply(t, e.Deltas)
				case dex.GraphRebuilt:
					rebuilds++
				}
			})
			defer cancel()

			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 500; i++ {
				nodes := nw.Nodes()
				switch {
				case i%25 == 24: // batch insert, distinct attach points
					specs := []dex.InsertSpec{
						{ID: nw.FreshID(), Attach: nodes[rng.Intn(len(nodes))]},
						{ID: nw.FreshID(), Attach: nodes[(rng.Intn(len(nodes))+1)%len(nodes)]},
					}
					err = nw.InsertBatch(specs)
				case i%25 == 12 && nw.Size() > 8:
					err = nw.DeleteBatch(nodes[:2])
					if err != nil {
						err = nil // model-illegal batch rejected: state (and mirror) untouched
					}
				case rng.Float64() < 0.7 || nw.Size() <= 6:
					err = nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
				default:
					err = nw.Delete(nodes[rng.Intn(len(nodes))])
				}
				if err != nil {
					t.Fatal(err)
				}
				sameEdgeMultiset(t, nw.Graph(), mirror.g, i)
			}
			if batches == 0 {
				t.Fatal("no EdgesChanged events delivered")
			}
			if rebuilds == 0 {
				t.Fatal("churn never rebuilt; test did not cover the rebuild diff path")
			}
		})
	}
	// A one-step deflation of a few thousand nodes rewires the whole
	// overlay in one step. Its diff is larger than the edge log keeps
	// between steps (1<<14 entries), so the engine drops the log's
	// capacity after delivering it; the mirror must still match.
	t.Run("simplified-rebuild-spike", func(t *testing.T) {
		nw, err := dex.New(
			dex.WithInitialSize(4096),
			dex.WithMode(dex.Simplified),
			dex.WithSeed(11),
			dex.WithEdgeEvents(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		mirror := newMirror(nw.Graph())
		spike := 0
		cancel := nw.Subscribe(func(ev dex.Event) {
			if e, ok := ev.(dex.EdgesChanged); ok {
				mirror.apply(t, e.Deltas)
				spike = max(spike, len(e.Deltas))
			}
		})
		defer cancel()
		rng := rand.New(rand.NewSource(11))
		for i := 0; spike <= 1<<14; i++ {
			if i == 4096 {
				t.Fatalf("no step's diff exceeded 1<<14 entries (largest %d)", spike)
			}
			if err := nw.Delete(nw.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
		}
		sameEdgeMultiset(t, nw.Graph(), mirror.g, nw.Totals().Steps)
		for i := 0; i < 50; i++ { // the log serves steps after the spike
			if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
		}
		sameEdgeMultiset(t, nw.Graph(), mirror.g, nw.Totals().Steps)
	})
}

// TestEdgeEventsOffByDefault checks no EdgesChanged event is published
// without WithEdgeEvents.
func TestEdgeEventsOffByDefault(t *testing.T) {
	nw, err := dex.New(dex.WithInitialSize(16), dex.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cancel := nw.Subscribe(func(ev dex.Event) {
		if _, ok := ev.(dex.EdgesChanged); ok {
			t.Fatal("EdgesChanged published without WithEdgeEvents")
		}
	})
	defer cancel()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		nodes := nw.Nodes()
		if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAuditModes drives churn under the sampled audit tier (which must
// stay silent on a healthy network, across staggered rebuilds) and
// validates the option surface.
func TestAuditModes(t *testing.T) {
	if _, err := dex.New(dex.WithAuditMode(dex.AuditMode(42))); err == nil {
		t.Fatal("accepted unknown audit mode")
	}
	nw, err := dex.New(dex.WithInitialSize(16), dex.WithSeed(8), dex.WithAuditMode(dex.AuditSampled))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 400; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.6 || nw.Size() <= 6 {
			err = nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			err = nw.Delete(nodes[rng.Intn(len(nodes))])
		}
		if err != nil {
			t.Fatalf("step %d: sampled audit tripped on a healthy network: %v", i, err)
		}
	}
	// The explicit tiers agree with the exhaustive check on demand.
	if err := nw.Audit(dex.AuditSampled); err != nil {
		t.Fatal(err)
	}
	if err := nw.Audit(dex.AuditFull); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryCapBoundsMemory checks WithHistoryCap keeps only the most
// recent steps while Totals preserves lifetime aggregates.
func TestHistoryCapBoundsMemory(t *testing.T) {
	if _, err := dex.New(dex.WithHistoryCap(-1)); err == nil {
		t.Fatal("accepted negative history cap")
	}
	nw, err := dex.New(dex.WithInitialSize(16), dex.WithSeed(5), dex.WithHistoryCap(64))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const steps = 500
	for i := 0; i < steps; i++ {
		nodes := nw.Nodes()
		if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	h := nw.History()
	if len(h) > 64 {
		t.Fatalf("history holds %d entries, cap is 64", len(h))
	}
	tot := nw.Totals()
	if tot.Steps != steps {
		t.Fatalf("Totals.Steps = %d, want %d", tot.Steps, steps)
	}
	if h[len(h)-1].Step != steps {
		t.Fatalf("last retained step is %d, want %d", h[len(h)-1].Step, steps)
	}
	if tot.Rounds <= 0 || tot.Messages <= 0 || tot.TopologyChanges <= 0 {
		t.Fatalf("degenerate totals: %+v", tot)
	}
}

// TestSampleNodeUniformLive checks SampleNode returns only live nodes
// and never consumes the network's own randomness (replay stays intact).
func TestSampleNodeUniformLive(t *testing.T) {
	nw, err := dex.New(dex.WithInitialSize(16), dex.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	var sampler dex.NodeSampler = nw // contract satisfied
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		victim := sampler.SampleNode(rng)
		if err := nw.Delete(victim); err != nil {
			if errors.Is(err, dex.ErrTooSmall) {
				break
			}
			t.Fatalf("sampled dead node %d: %v", victim, err)
		}
	}
	live := make(map[dex.NodeID]bool)
	for _, u := range nw.Nodes() {
		live[u] = true
	}
	for i := 0; i < 200; i++ {
		if u := sampler.SampleNode(rng); !live[u] {
			t.Fatalf("sampled non-live node %d", u)
		}
	}
}

// TestRecomputeGraphMatchesLive checks the full-rebuild oracle equals
// the incrementally maintained overlay after churn in both modes.
func TestRecomputeGraphMatchesLive(t *testing.T) {
	for _, mode := range []dex.Mode{dex.Staggered, dex.Simplified} {
		nw, err := dex.New(dex.WithInitialSize(16), dex.WithMode(mode), dex.WithSeed(13))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 300; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < 0.6 || nw.Size() <= 6 {
				err = nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
			} else {
				err = nw.Delete(nodes[rng.Intn(len(nodes))])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		live, oracle := nw.Graph(), nw.RecomputeGraph()
		if live.NumNodes() != oracle.NumNodes() || live.NumEdges() != oracle.NumEdges() {
			t.Fatalf("mode %v: live %d/%d vs oracle %d/%d (nodes/edges)", mode,
				live.NumNodes(), live.NumEdges(), oracle.NumNodes(), oracle.NumEdges())
		}
		for _, e := range oracle.Edges() {
			if live.Multiplicity(e.U, e.V) != e.Mult {
				t.Fatalf("mode %v: edge {%d,%d} live %d, oracle %d", mode, e.U, e.V,
					live.Multiplicity(e.U, e.V), e.Mult)
			}
		}
	}
}
