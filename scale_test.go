package repro

import (
	"math/rand"
	"testing"

	"repro/dex"
	"repro/internal/harness"
)

// TestScaleIncrementalChurn is the scale regression gate for the
// incremental real-graph maintenance: a dexsim-style churn run past
// 10^5 nodes, with the o(n) sampled audit on every step, finished by
// the exhaustive invariant check and a full differential comparison
// against the from-scratch rebuild oracle. Before maintenance became
// incremental this size was unreachable in test time; if a per-step
// O(p) scan creeps back into the hot path, this test times out rather
// than passes quietly.
func TestScaleIncrementalChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("scale regression test skipped in -short mode")
	}
	const (
		start  = 65536
		target = 100_000
		mixed  = 1500 // mixed churn steps after growth, exercising deletes at scale
	)
	nw, err := dex.New(
		dex.WithInitialSize(start),
		dex.WithMode(dex.Staggered),
		dex.WithSeed(42),
		dex.WithAuditMode(dex.AuditSampled),
		dex.WithHistoryCap(16384),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	grow := harness.InsertOnly{}
	for nw.Size() < target {
		if err := grow.Step(nw, rng); err != nil {
			t.Fatalf("grow at n=%d: %v", nw.Size(), err)
		}
	}
	churn := harness.RandomChurn{PInsert: 0.5, MinSize: target - 500}
	for i := 0; i < mixed; i++ {
		if err := churn.Step(nw, rng); err != nil {
			t.Fatalf("churn step %d at n=%d: %v", i, nw.Size(), err)
		}
	}
	if nw.Size() < target-1000 {
		t.Fatalf("network shrank unexpectedly: n=%d", nw.Size())
	}

	// Exhaustive gate: every paper invariant, then the incremental graph
	// against the full-rebuild oracle edge-for-edge.
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	live, oracle := nw.Graph(), nw.RecomputeGraph()
	if live.NumNodes() != oracle.NumNodes() || live.NumEdges() != oracle.NumEdges() {
		t.Fatalf("live %d nodes / %d edges, oracle %d / %d",
			live.NumNodes(), live.NumEdges(), oracle.NumNodes(), oracle.NumEdges())
	}
	for _, e := range oracle.Edges() {
		if live.Multiplicity(e.U, e.V) != e.Mult {
			t.Fatalf("edge {%d,%d}: live multiplicity %d, oracle %d",
				e.U, e.V, live.Multiplicity(e.U, e.V), e.Mult)
		}
	}
	if ml, bound := nw.MaxLoad(), 8*nw.Zeta(); ml > bound {
		t.Fatalf("max load %d exceeds %d at n=%d", ml, bound, nw.Size())
	}
	t.Logf("final: n=%d p=%d steps=%d maxload=%d", nw.Size(), nw.P(), nw.Totals().Steps, nw.MaxLoad())
}
