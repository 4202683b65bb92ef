package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// churnProfile names the file BenchmarkChurnAudit writes a CPU profile
// of its timed loop to (make profile-churn): pprof starts after the
// network is built and stops when the loop ends, so the profile shows
// the churn window only, where -cpuprofile would include set-up.
var churnProfile = flag.String("churnprofile", "", "write a CPU profile of BenchmarkChurnAudit's timed loop to this file")

// profileWindow starts the -churnprofile CPU profile, when one is asked
// for, and returns the function that stops it.
func profileWindow(b *testing.B) func() {
	if *churnProfile == "" {
		return func() {}
	}
	f, err := os.Create(*churnProfile)
	if err != nil {
		b.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		b.Fatal(err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// This file is the bench-core tier: the engine-state benchmark and
// allocation-regression gates for the slot-indexed store, the per-op
// analogue of internal/graph's bench/alloc gates for the arena.
// BenchmarkRecoveryOp prices one steady-state recovery operation
// (delete + insert at fixed n); the Test*Allocs gates pin the recovery
// path and the sampled audit at zero allocations per op so a map or
// slice can't silently sneak back into them.

// steadyEngine builds an n-node network, churned enough that the
// store's free lists and the arena runs are at steady-state capacity,
// with history capped so metrics append-growth can't masquerade as a
// recovery-path allocation.
func steadyEngine(tb testing.TB, n int) *Network {
	cfg := DefaultConfig()
	cfg.HistoryCap = 128
	nw, err := New(64, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for nw.Size() < n {
		k := n - nw.Size()
		if k > 512 {
			k = 512
		}
		nodes := nw.Nodes()
		specs := make([]InsertSpec, k)
		for j := range specs {
			specs[j] = InsertSpec{ID: nw.FreshID(), Attach: nodes[j%len(nodes)]}
		}
		if err := nw.InsertBatch(specs); err != nil {
			tb.Fatal(err)
		}
	}
	// Settle: cross any in-flight rebuild and warm the churn path.
	for i := 0; i < 2*n/100+200; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	return nw
}

// BenchmarkRecoveryOp measures one steady-state recovery operation — a
// delete (adoption + redistribution walks) followed by an insert
// (donor walk) at constant n — on the slot-indexed store. The row keeps
// its historical dense/ prefix: BENCH_core.json, bench-diff and
// profile-churn key on the name. Run via `make bench-core`.
func BenchmarkRecoveryOp(b *testing.B) {
	for _, size := range []int{100000} {
		b.Run(fmt.Sprintf("dense/n=%d", size), func(b *testing.B) {
			nw := steadyEngine(b, size)
			rng := rand.New(rand.NewSource(23))
			// Start the window GC-clean: setup churns through hundreds
			// of MB, and whether the pacer fires a cycle inside the
			// short timed window is otherwise a coin flip worth ±20% on
			// ns/op (the loop itself allocates nothing, so a fresh
			// pacer epoch stays quiet).
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nw.Delete(nw.SampleNode(rng)); err != nil {
					b.Fatal(err)
				}
				if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// joinedEngine builds the network the end-to-end workloads run
// (bench/workload.go): Staggered, started at 256 nodes, grown to n by
// single joins at uniform attach points, then aged by pairs
// delete+insert pairs. steadyEngine's 512-member InsertBatch growth
// ends at a different network (p/n near 10.6 at 10^5 nodes, where
// single joins end near 2.6), so rows that price what the workloads
// see build this one.
func joinedEngine(tb testing.TB, n, pairs int) *Network {
	cfg := DefaultConfig()
	cfg.HistoryCap = 128
	nw, err := New(256, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for nw.Size() < n {
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < pairs; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	return nw
}

// BenchmarkChurnAudit prices the sampled audit on the network the
// workloads run: one iteration is a delete plus an insert on a
// joinedEngine aged by 2*10^4 pairs, each op followed by Audit(mode) as
// the dex façade does after every operation. Audit draws nothing from
// the engine's random source, so every row runs the same operations on
// the same network, and the gap between off and sampled is the audit's
// cost per pair. The sampled+edges row adds an edge observer that
// drops its batch, registered after the aging: durable-full's engine
// path without persistence. The report-only off+view and sampled+view
// rows read Graph() after the aging, so the window runs on a kept view,
// as a Graph() caller, a Simplified network after its first flood or a
// load past viewOnLoad does, and the sampled audit checks each node's
// row against its run; the gap between the two prices that audit. The
// off and sampled rows allocate nothing per op (the ZeroAllocs gates
// below pin both paths); the sampled+edges row allocates the two
// batches its observer is handed, copies a subscriber may keep. Run via
// `make bench-core`; `make profile-churn` profiles the off row's timed
// loop through -churnprofile.
func BenchmarkChurnAudit(b *testing.B) {
	for _, row := range []struct {
		name  string
		mode  AuditMode
		edges bool
		view  bool
	}{
		{"off", AuditOff, false, false},
		{"sampled", AuditSampled, false, false},
		{"sampled+edges", AuditSampled, true, false},
		{"off+view", AuditOff, false, true},
		{"sampled+view", AuditSampled, false, true},
	} {
		mode := row.mode
		for _, size := range []int{100000} {
			b.Run(fmt.Sprintf("%s/n=%d", row.name, size), func(b *testing.B) {
				nw := joinedEngine(b, size, size/5)
				if row.edges {
					nw.SetEdgeObserver(func(int, []graph.EdgeDelta) {})
				}
				if row.view {
					nw.Graph()
				}
				rng := rand.New(rand.NewSource(23))
				pair := func() {
					if err := nw.Delete(nw.SampleNode(rng)); err != nil {
						b.Fatal(err)
					}
					if err := nw.Audit(mode); err != nil {
						b.Fatal(err)
					}
					if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
						b.Fatal(err)
					}
					if err := nw.Audit(mode); err != nil {
						b.Fatal(err)
					}
				}
				// Size the audit's reused buffers before the window.
				for i := 0; i < 64; i++ {
					pair()
				}
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				stop := profileWindow(b)
				for i := 0; i < b.N; i++ {
					pair()
				}
				stop()
			})
		}
	}
}

// midStaggerEngine grows a network by joinedEngine's single joins to
// at least n nodes, then keeps joining until a staggered inflation is
// halfway through its first phase, where its pending intermediate edges
// are many.
func midStaggerEngine(tb testing.TB, n int) *Network {
	nw := joinedEngine(tb, n, 0)
	rng := rand.New(rand.NewSource(37))
	for nw.stag == nil || nw.stag.phase != 1 || 2*nw.stag.frontier < nw.P() {
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	return nw
}

// BenchmarkAppendState prices the engine half of a checkpoint on the
// network the workloads run (joinedEngine, aged by 2*10^4 pairs): one
// iteration serializes the whole engine state into a buffer grown by an
// earlier checkpoint, as persist.Checkpoint reuses its own. bytes/state
// is the encoded size. The report-only mid-stagger row encodes a
// network caught halfway through a staggered inflation's first phase
// (midStaggerEngine), whose pending-edge keys the encoder sorts;
// pending-keys counts them. Run via `make bench-core`.
func BenchmarkAppendState(b *testing.B) {
	for _, row := range []struct {
		name  string
		build func(testing.TB, int) *Network
	}{
		{"n=%d", func(tb testing.TB, n int) *Network { return joinedEngine(tb, n, n/5) }},
		{"mid-stagger/n=%d", midStaggerEngine},
	} {
		size := 100000
		b.Run(fmt.Sprintf(row.name, size), func(b *testing.B) {
			nw := row.build(b, size)
			enc := wire.NewEncoder(nil)
			if err := nw.AppendState(enc); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Reset()
				if err := nw.AppendState(enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(enc.Len()), "bytes/state")
			if nw.stag != nil {
				b.ReportMetric(float64(len(nw.stag.pending)), "pending-keys")
			}
		})
	}
}

// BenchmarkRestoreNetwork prices the engine half of a reopen on the same
// network: one iteration restores a live engine from its serialized
// state, re-deriving the overlay from the mapping. Run via
// `make bench-core`.
func BenchmarkRestoreNetwork(b *testing.B) {
	for _, size := range []int{100000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			enc := wire.NewEncoder(nil)
			if err := joinedEngine(b, size, size/5).AppendState(enc); err != nil {
				b.Fatal(err)
			}
			data := enc.Bytes()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RestoreNetwork(wire.NewDecoder(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryOpZeroAllocsSteadyState is the alloc-regression gate on
// the recovery path: at steady state (no type-2 rebuild in the
// window), a delete+insert pair must not allocate — walks, vertex-set
// moves, load updates, dirty tracking, and capped-history append all
// run in recycled storage, first on derived rows (the network grown by
// single joins, which nothing has observed) and then with a view kept.
// The window is placed between rebuilds by construction: theta*n steps
// separate triggers at this size, far more than the samples consumed.
func TestRecoveryOpZeroAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is a few thousand ops")
	}
	nw := joinedEngine(t, 4096, 2*4096/100+200)
	rng := rand.New(rand.NewSource(29))
	// One more warm lap so FreshID growth and scratch slices are sized.
	for i := 0; i < 256; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	pair := func() {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if nw.viewKept {
		t.Fatal("the unobserved network keeps a view: the first gate would not price derived reads")
	}
	if allocs := testing.AllocsPerRun(400, pair); allocs != 0 {
		t.Fatalf("steady-state delete+insert allocates %.2f per pair, want 0", allocs)
	}
	// Once observed, the view is kept and edited with every change.
	nw.Graph()
	for i := 0; i < 256; i++ {
		pair()
	}
	if allocs := testing.AllocsPerRun(400, pair); allocs != 0 {
		t.Fatalf("steady-state delete+insert with a kept view allocates %.2f per pair, want 0", allocs)
	}
}

// TestAuditSampledZeroAllocs is the alloc gate on the sampled audit:
// with a view kept, the node check counts the arena run's cells in
// wantRow's unsorted expected row, built in a network-owned buffer, and
// without one it checks the mapping side, simSlot included, so
// auditing every step costs no allocation. The steady case audits
// after each delete+insert pair; the staggered case audits a network
// paused mid-rebuild, whose rows also carry NewSim holdings and pending
// intermediate edges; the derived case audits after each pair on the
// network the workloads run, with no view kept.
func TestAuditSampledZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is a few thousand ops")
	}
	t.Run("derived", func(t *testing.T) {
		nw := joinedEngine(t, 4096, 2*4096/100+200)
		rng := rand.New(rand.NewSource(29))
		triple := func() {
			if err := nw.Delete(nw.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
			if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
			if err := nw.Audit(AuditSampled); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 256; i++ {
			triple()
		}
		if nw.viewKept {
			t.Fatal("the unobserved network keeps a view: the gate would not price the derived audit")
		}
		if allocs := testing.AllocsPerRun(400, triple); allocs != 0 {
			t.Fatalf("delete+insert+sampled audit without a view allocates %.2f per triple, want 0", allocs)
		}
	})
	t.Run("steady", func(t *testing.T) {
		nw := steadyEngine(t, 4096)
		nw.Graph() // the row checks run against a kept view
		rng := rand.New(rand.NewSource(29))
		triple := func() {
			if err := nw.Delete(nw.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
			if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
			if err := nw.Audit(AuditSampled); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 256; i++ {
			triple()
		}
		if allocs := testing.AllocsPerRun(400, triple); allocs != 0 {
			t.Fatalf("delete+insert+sampled audit allocates %.2f per triple, want 0", allocs)
		}
	})
	t.Run("staggered-mid-rebuild", func(t *testing.T) {
		nw := midRebuildEngine(t)
		nw.Graph()
		audit := func() {
			if err := nw.Audit(AuditSampled); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			audit()
		}
		if allocs := testing.AllocsPerRun(400, audit); allocs != 0 {
			t.Fatalf("mid-rebuild sampled audit allocates %.2f per call, want 0", allocs)
		}
	})
}
