package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestWalkFastPathMatchesEngineOnOverlay is the fidelity bridge promised
// in README.md: the direct token walk the maintainer uses for type-1
// recovery behaves identically - same endpoint, same hit flag, same step
// count (= messages = rounds) - to the goroutine message-passing
// execution on the DEX overlay graph. The maintainer's walks hop over
// rows derived from the mapping (hopRows); they are taken here before
// anything observes the overlay, so every hop is derived, and the
// message-passing walk then runs over the materialized view.
func TestWalkFastPathMatchesEngineOnOverlay(t *testing.T) {
	nw := mustNew(t, 24, DefaultConfig())
	churnQuiet(t, nw, 60)
	stop := func(u graph.NodeID, _ int32) bool { return nw.Load(u) >= 2 }
	start := nw.Nodes()[0]
	derived := make([]congest.WalkResult, 31)
	for seed := uint64(1); seed <= 30; seed++ {
		derived[seed] = congest.RandomWalkDirectAt(hopRows{nw}, start, nw.st.slot(start), -1, nw.walkLen(), seed, stop)
	}
	if nw.viewKept {
		t.Fatal("the derived walks materialized the view")
	}
	g := nw.Graph()
	for seed := uint64(1); seed <= 30; seed++ {
		d := congest.RandomWalkDirect(g, start, -1, nw.walkLen(), seed, stop)
		e := congest.NewEngine(g)
		w := congest.RandomWalkEngine(e, start, -1, nw.walkLen(), seed, stop)
		if d != w || derived[seed] != w {
			t.Fatalf("seed %d: direct %+v, derived %+v vs engine %+v", seed, d, derived[seed], w)
		}
	}
}

// TestFloodMatchesCounters checks that Algorithm 4.4's flood reports
// exactly the coordinator's |Spare| counter on the overlay, and that
// Simplified mode's two size-count floods (computeSpare, computeLow)
// agree field for field with their message-passing execution.
func TestFloodMatchesCounters(t *testing.T) {
	nw := mustNew(t, 24, DefaultConfig())
	churnQuiet(t, nw, 80)
	agg := congest.FloodAggregate(nw.Graph(), nw.Coordinator(), func(u graph.NodeID) int64 {
		if nw.Load(u) >= 2 {
			return 1
		}
		return 0
	})
	if int(agg.Sum) != nw.SpareCount() {
		t.Fatalf("flooded |Spare| = %d, counter = %d", agg.Sum, nw.SpareCount())
	}
	if int(agg.Count) != nw.Size() {
		t.Fatalf("flooded n = %d, actual = %d", agg.Count, nw.Size())
	}

	// Simplified mode floods through the slot-native direct form on the
	// engine's reusable scratch, counting with the prebuilt walk stop
	// predicates. On a churned overlay, from every initiator, both of
	// its floods must report exactly what the message-passing execution
	// reports, and their sums must match the |Spare| and |Low| counters.
	cfg := DefaultConfig()
	cfg.Mode = Simplified
	sn := mustNew(t, 24, cfg)
	// A growth wave then a shrink wave: walks start missing near each
	// rebuild threshold, so both floods run inside the churn itself.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		nodes := sn.Nodes()
		if err := sn.Insert(sn.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 260; i++ {
		nodes := sn.Nodes()
		if err := sn.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	churnQuiet(t, sn, 40)
	if sn.Totals().Floods == 0 {
		t.Fatal("churn never reached a Simplified-mode flood")
	}
	nodes := sn.Nodes()
	newborn := sn.FreshID()
	if err := sn.Insert(newborn, nodes[0]); err != nil {
		t.Fatal(err)
	}
	spare := sn.insertStop(newborn) // computeSpare: u != newborn && load(u) >= 2
	wantSpare := sn.SpareCount()
	if sn.Load(newborn) >= 2 {
		wantSpare--
	}
	zeta := sn.cfg.Zeta
	for _, u := range sn.Nodes() {
		s, _ := sn.Graph().SlotOf(u)
		for _, fl := range []struct {
			name  string
			count func(NodeID, int32) bool
			value func(NodeID) int64
			want  int
		}{
			{"computeSpare", spare, func(v NodeID) int64 { return b2i(v != newborn && sn.Load(v) >= 2) }, wantSpare},
			{"computeLow", sn.steadyLowStop, func(v NodeID) int64 { return b2i(sn.Load(v) <= 2*zeta) }, sn.LowCount()},
		} {
			direct := sn.flood.AggregateAt(sn.Graph(), u, s, fl.count)
			engine := congest.FloodAggregateEngine(congest.NewEngine(sn.Graph()), u, fl.value)
			if direct != engine {
				t.Fatalf("%s from %d: direct %+v != engine %+v", fl.name, u, direct, engine)
			}
			if int(direct.Sum) != fl.want || int(direct.Count) != sn.Size() {
				t.Fatalf("%s from %d: sum %d count %d, counters say %d of %d", fl.name, u, direct.Sum, direct.Count, fl.want, sn.Size())
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func churnQuiet(t testing.TB, nw *Network, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < steps; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.5 || nw.Size() <= 6 {
			if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// --- differential oracle -------------------------------------------------------
//
// The incremental real-graph maintenance must be indistinguishable from
// recomputing the contraction from scratch after every operation. The
// helpers below are the reusable oracle: the fuzz target, the randomized
// trace tests, and the scale tests all drive churn through them.

// checkDifferentialState compares the overlay against the full-rebuild
// oracle and runs the sampled audit (the o(n) tier must agree with the
// ground truth whenever the state is healthy). A kept view must equal
// the rebuild; without one, every node's derived reads must read the
// rebuild's runs (checkDerivedReads, two hop words per exclusion).
// Neither materializes the view.
func checkDifferentialState(nw *Network) error {
	want := nw.expectedRealGraph()
	if nw.viewKept {
		if err := graphsEqual(nw.real, want); err != nil {
			return fmt.Errorf("incremental real graph diverged from full rebuild: %w", err)
		}
	} else if err := checkDerivedReads(nw, want, 2); err != nil {
		return fmt.Errorf("derived reads diverged from full rebuild: %w", err)
	}
	if err := nw.Audit(AuditSampled); err != nil {
		return fmt.Errorf("sampled audit disagrees with healthy state: %w", err)
	}
	return nil
}

// checkEveryNode runs the node-local audit on the whole network,
// validating wantRow against the live graph for every node (including
// mid-rebuild states with intermediate edges).
func checkEveryNode(nw *Network) error {
	for _, u := range nw.Nodes() {
		if err := nw.CheckNode(u); err != nil {
			return err
		}
	}
	return nil
}

// traceStep performs one randomized operation - single insert/delete or
// a batch - against nw, mirroring the adversarial op mix the public
// harness generates.
func traceStep(nw *Network, rng *rand.Rand) error {
	nodes := nw.Nodes()
	r := rng.Float64()
	switch {
	case r < 0.50 || nw.Size() <= 6:
		return nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
	case r < 0.85:
		return nw.Delete(nodes[rng.Intn(len(nodes))])
	case r < 0.93:
		k := 1 + rng.Intn(4)
		specs := make([]InsertSpec, k)
		for j := range specs {
			specs[j] = InsertSpec{ID: nw.FreshID(), Attach: nodes[(rng.Intn(len(nodes))+j)%len(nodes)]}
		}
		return nw.InsertBatch(specs)
	default:
		k := 1 + rng.Intn(3)
		perm := rng.Perm(len(nodes))
		victims := make([]NodeID, 0, k)
		for _, i := range perm[:k] {
			victims = append(victims, nodes[i])
		}
		err := nw.DeleteBatch(victims)
		if err != nil && nw.Size() > 4 {
			// Model-illegal batches (disconnection, no surviving
			// neighbor, too small) are legitimately rejected; the state
			// must be untouched, which the caller's oracle check proves.
			return nil
		}
		return err
	}
}

// TestDifferentialChurnTraces replays randomized churn traces -
// single ops, batches, staggered and simplified rebuilds - asserting
// after every operation that the incremental real graph is identical to
// a shadow full rebuild, and periodically that every node-local audit
// and the exhaustive invariant check agree. Every trace registers an
// edge observer from construction, which keeps no view, and replays its
// batches onto a mirror that must equal the rebuild after every
// operation, so the edge events are checked on derived reads and on a
// kept view alike.
func TestDifferentialChurnTraces(t *testing.T) {
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) {
				// Observed: the view is kept from construction. Halfway:
				// nothing observes the first half in Staggered mode (the
				// test asserts so), batches included, and a view is kept
				// there only as the mean load steers one, so derived
				// reads, simSlot and the edge events are checked across
				// rebuild commits; then the view is materialized.
				for _, observeAt := range []int{0, 150} {
					differentialTrace(t, mode, seed, observeAt)
				}
			})
		}
	}
}

// differentialTrace runs TestDifferentialChurnTraces' 300-op trace
// (traceStep) under the differential oracle, materializing the view
// before op observeAt. In Staggered mode nothing before that observes
// the overlay: DeleteBatch's checks read derived rows, and a one-step
// rebuild reads no view, so after every operation a view is kept
// exactly when the mean load steers one for the walks: on past
// viewOnLoad, off again below viewOffLoad.
func differentialTrace(t *testing.T, mode RecoveryMode, seed int64, observeAt int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Seed = seed
	nw := mustNew(t, 12, cfg)
	mirror := mirrorEdges(nw)
	rng := rand.New(rand.NewSource(seed * 101))
	kept := nw.viewKept
	for i := 0; i < 300; i++ {
		if i == observeAt {
			nw.Graph()
		}
		steps := nw.totals.Steps
		if err := traceStep(nw, rng); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i < observeAt && mode == Staggered {
			if nw.observed {
				t.Fatalf("op %d: an operation observed the overlay", i)
			}
			// A rejected batch ends no step and must leave the view as
			// it was.
			if p, n := nw.P(), int64(nw.Size()); nw.totals.Steps > steps {
				kept = p > viewOnLoad*n || kept && p >= viewOffLoad*n
			}
			if nw.viewKept != kept {
				t.Fatalf("op %d: viewKept %v at p=%d, n=%d, want %v", i, nw.viewKept, nw.P(), nw.Size(), kept)
			}
		}
		if err := checkDifferentialState(nw); err != nil {
			t.Fatalf("op %d (%s): %v", i, nw.RebuildDebug(), err)
		}
		if err := mirror.matches(nw.RecomputeGraph()); err != nil {
			t.Fatalf("op %d (%s): edge events: %v", i, nw.RebuildDebug(), err)
		}
		if i%10 == 0 {
			if err := checkEveryNode(nw); err != nil {
				t.Fatalf("op %d (%s): %v", i, nw.RebuildDebug(), err)
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDenseMatchesMapOracle is the engine-level store gate: through
// growth, deletion storms, batches, and both rebuild modes, over three
// seeds and with each per-operation audit tier running throughout, the
// store must hold after every operation exactly what the map-keyed
// storeModel projected from the engine's virtual mapping holds
// (modelOf, compareStore). Until the store had one representation this
// test ran a dense and a map-backed engine in lockstep; the map backend
// now lives on as that test-only model, and the test keeps its name.
//
// The seed cases keep the labels they had when the engine also took a
// walk-worker width and derived its seed as 19+width. Width never
// changed outcomes, so each label still names the same run, now serial.
func TestDenseMatchesMapOracle(t *testing.T) {
	seeds := []struct {
		label string
		seed  int64
	}{{"workers=1", 20}, {"workers=4", 23}, {"workers=8", 27}}
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		for _, sc := range seeds {
			for _, audit := range []AuditMode{AuditOff, AuditSampled, AuditFull} {
				if audit == AuditFull && sc.seed == 23 {
					continue // full audit is O(p) per op; two seeds suffice
				}
				t.Run(fmt.Sprintf("%v/%s/audit=%v", mode, sc.label, audit), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Mode = mode
					cfg.Seed = sc.seed
					nw := mustNew(t, 32, cfg)
					rng := rand.New(rand.NewSource(cfg.Seed * 31))
					steps := 220
					if audit == AuditFull {
						steps = 120
					}
					for i := 0; i < steps; i++ {
						if err := traceStep(nw, rng); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
						if err := nw.Audit(audit); err != nil {
							t.Fatalf("op %d: audit: %v", i, err)
						}
						m, err := modelOf(nw)
						if err == nil {
							err = compareStore(&nw.st, m, 0)
						}
						if err != nil {
							t.Fatalf("op %d (%s): store diverged from the mapping's model: %v", i, nw.RebuildDebug(), err)
						}
					}
					if err := nw.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// equalEngineState fails the test unless the two networks are in
// byte-identical externally observable states: mapping, loads, vertex
// sets, overlay edges, modulus, and per-step metrics history.
func equalEngineState(t *testing.T, tag string, a, b *Network) {
	t.Helper()
	if a.P() != b.P() || a.Size() != b.Size() {
		t.Fatalf("%s: shape diverged: p %d vs %d, n %d vs %d", tag, a.P(), b.P(), a.Size(), b.Size())
	}
	if !reflect.DeepEqual(a.simOf, b.simOf) {
		t.Fatalf("%s: virtual mapping diverged", tag)
	}
	if !reflect.DeepEqual(a.st.loadSnapshot(), b.st.loadSnapshot()) {
		t.Fatalf("%s: load tables diverged", tag)
	}
	if !reflect.DeepEqual(a.st.simSnapshot(), b.st.simSnapshot()) {
		t.Fatalf("%s: vertex sets diverged", tag)
	}
	if !reflect.DeepEqual(a.Graph().Edges(), b.Graph().Edges()) {
		t.Fatalf("%s: overlay edge multisets diverged", tag)
	}
	if !reflect.DeepEqual(a.History(), b.History()) {
		ah, bh := a.History(), b.History()
		for i := range ah {
			if i < len(bh) && ah[i] != bh[i] {
				t.Fatalf("%s: history diverged at step %d:\n%+v\n%+v", tag, i+1, ah[i], bh[i])
			}
		}
		t.Fatalf("%s: history lengths diverged: %d vs %d", tag, len(ah), len(bh))
	}
}

// TestDirtySetBoundedOnType1Steps asserts the tentpole's o(p) claim at
// the mechanism level: an operation that triggers no rebuild commit
// dirties O(zeta * operation footprint) nodes, independent of n and p.
func TestDirtySetBoundedOnType1Steps(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 64, cfg)
	rng := rand.New(rand.NewSource(17))
	bound := 64 * cfg.Zeta // generous constant envelope, still ≪ p
	for i := 0; i < 400; i++ {
		nodes := nw.Nodes()
		var err error
		if rng.Float64() < 0.5 || nw.Size() <= 6 {
			err = nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			err = nw.Delete(nodes[rng.Intn(len(nodes))])
		}
		if err != nil {
			t.Fatal(err)
		}
		st := nw.LastStep()
		if active, _ := nw.Rebuilding(); active || st.StaggerActive || st.Recovery != RecoveryType1 {
			continue // rebuild steps may legitimately touch more
		}
		if got := len(nw.st.dirtyList); got > bound {
			t.Fatalf("step %d: type-1 op dirtied %d nodes (> %d) at n=%d p=%d",
				i, got, bound, nw.Size(), nw.P())
		}
	}
}

// Property: arbitrary operation sequences preserve all invariants, in
// both recovery modes (testing/quick drives the op mix and seeds).
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64, insertBias uint8) bool {
		cfg := DefaultConfig()
		if seed%2 == 0 {
			cfg.Mode = Simplified
		}
		cfg.Seed = seed
		nw, err := New(12, cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		p := 0.2 + float64(insertBias%60)/100.0 // insert prob in [0.2, 0.8)
		for i := 0; i < 120; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < p || nw.Size() <= 6 {
				if nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]) != nil {
					return false
				}
			} else {
				if nw.Delete(nodes[rng.Intn(len(nodes))]) != nil {
					return false
				}
			}
			if i%7 == 0 && nw.CheckInvariants() != nil {
				return false
			}
		}
		return nw.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
