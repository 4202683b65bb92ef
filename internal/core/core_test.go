package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/wire"
)

func mustNew(t testing.TB, n0 int, cfg Config) *Network {
	t.Helper()
	nw, err := New(n0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("initial invariants: %v", err)
	}
	return nw
}

// TestNewValidation: New refuses fewer than 4 nodes, and New,
// NewWithMapping and RestoreNetwork refuse the same out-of-domain Config
// fields and accept the default.
func TestNewValidation(t *testing.T) {
	if _, err := New(2, DefaultConfig()); err == nil {
		t.Fatal("accepted n0=2")
	}
	valid := mustNew(t, 16, DefaultConfig())
	owner := append([]NodeID(nil), valid.simOf...)
	constructors := []struct {
		name  string
		build func(cfg Config) error
	}{
		{"New", func(cfg Config) error { _, err := New(16, cfg); return err }},
		{"NewWithMapping", func(cfg Config) error { _, err := NewWithMapping(valid.P(), owner, cfg); return err }},
		{"RestoreNetwork", func(cfg Config) error {
			good := valid.cfg
			valid.cfg = cfg // AppendState writes the configuration as it finds it
			defer func() { valid.cfg = good }()
			_, err := RestoreNetwork(wire.NewDecoder(encodeState(t, valid)))
			return err
		}},
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"zeta=1", func(c *Config) { c.Zeta = 1 }},
		{"theta=0", func(c *Config) { c.Theta = 0 }},
		{"theta=0.9", func(c *Config) { c.Theta = 0.9 }},
		{"walk-factor=0", func(c *Config) { c.WalkFactor = 0 }},
		{"walk-retry-limit=0", func(c *Config) { c.WalkRetryLimit = 0 }},
		{"mode=-1", func(c *Config) { c.Mode = -1 }},
		{"mode=staggered+1", func(c *Config) { c.Mode = Staggered + 1 }},
		{"history-cap=-5", func(c *Config) { c.HistoryCap = -5 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		for _, c := range constructors {
			err := c.build(cfg)
			if tc.name == "default" && err != nil {
				t.Errorf("%s refused the default config: %v", c.name, err)
			}
			if tc.name != "default" && err == nil {
				t.Errorf("%s accepted config %s", c.name, tc.name)
			}
		}
	}
}

func TestInitialNetworkShape(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	if nw.Size() != 16 {
		t.Fatalf("size = %d", nw.Size())
	}
	p := nw.P()
	if p <= 64 || p >= 128 {
		t.Fatalf("p0 = %d outside (64, 128)", p)
	}
	// Every node has at most 3*Load incident edge slots (Section 3.1;
	// virtual edges internal to a node contract to self-loops, so the
	// multigraph degree can only be smaller).
	for _, u := range nw.Nodes() {
		d, l := nw.Graph().Degree(u), nw.Load(u)
		if d > 3*l || d < 1 {
			t.Fatalf("degree(%d) = %d, load = %d", u, d, l)
		}
	}
	if gap := spectral.Gap(nw.Graph()); gap < 0.01 {
		t.Fatalf("initial gap = %v", gap)
	}
}

func TestInsertBasic(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	id := nw.FreshID()
	if err := nw.Insert(id, 0); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 17 {
		t.Fatalf("size = %d", nw.Size())
	}
	if nw.Load(id) < 1 {
		t.Fatal("inserted node has no vertex")
	}
	m := nw.LastStep()
	if m.Op != OpInsert || m.Recovery != RecoveryType1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Rounds <= 0 || m.Messages <= 0 {
		t.Fatalf("no cost recorded: %+v", m)
	}
}

func TestInsertErrors(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	if err := nw.Insert(3, 0); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := nw.Insert(nw.FreshID(), 999); err == nil {
		t.Fatal("unknown attach point accepted")
	}
}

// TestNegativeIDsRefused: ids below 0 are the engine's "no node"
// sentinels, so Insert and InsertBatch refuse them without touching
// the network, NewWithMapping refuses a mapping naming one, and
// RestoreNetwork a node list holding one. Churn after the refusals
// keeps every invariant (an inserted -1 once made a later delete find
// no surviving neighbor).
func TestNegativeIDsRefused(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 40)
	type view struct {
		totals  Totals
		history []StepMetrics
		edges   []graph.Edge
		epoch   uint64
	}
	look := func() view {
		return view{nw.Totals(), append([]StepMetrics(nil), nw.History()...), nw.Graph().Edges(), nw.Graph().Epoch()}
	}
	attach := nw.SampleNode(rand.New(rand.NewSource(2)))
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"insert", func() error { return nw.Insert(-1, attach) }},
		{"insert-min", func() error { return nw.Insert(math.MinInt64, attach) }},
		{"insert-batch", func() error {
			return nw.InsertBatch([]InsertSpec{{ID: 1000, Attach: attach}, {ID: -2, Attach: attach}})
		}},
	} {
		before := look()
		if err := tc.op(); !errors.Is(err, errNegativeID) {
			t.Fatalf("%s: error %v, want a negative-id refusal", tc.name, err)
		}
		if after := look(); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: the refusal changed the network", tc.name)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var err error
		if rng.Float64() < 0.6 {
			err = nw.Insert(nw.FreshID(), nw.SampleNode(rng))
		} else {
			err = nw.Delete(nw.SampleNode(rng))
		}
		if err != nil && !errors.Is(err, ErrTooSmall) {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	owner := append([]NodeID(nil), nw.simOf...)
	owner[len(owner)/2] = -3
	if _, err := NewWithMapping(nw.P(), owner, DefaultConfig()); !errors.Is(err, errNegativeID) {
		t.Fatalf("NewWithMapping: error %v, want a negative-id refusal", err)
	}

	// A checkpoint holding node -1, inserted the way Insert did before it
	// refused negative ids.
	old := mustNew(t, 16, DefaultConfig())
	old.beginStep(OpInsert, -1)
	old.insertOneOfBatch(InsertSpec{ID: -1, Attach: 0}, old.st.slot(0))
	old.afterRecovery(old.st.slot(0))
	old.endStep()
	if _, err := RestoreNetwork(wire.NewDecoder(encodeState(t, old))); !errors.Is(err, errNegativeID) {
		t.Fatalf("RestoreNetwork: error %v, want a negative-id refusal", err)
	}
}

func TestDeleteBasic(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	if err := nw.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 15 {
		t.Fatalf("size = %d", nw.Size())
	}
	if nw.Graph().HasNode(5) {
		t.Fatal("deleted node still present")
	}
}

func TestDeleteErrors(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	if err := nw.Delete(999); err == nil {
		t.Fatal("unknown node accepted")
	}
	small := mustNew(t, 4, DefaultConfig())
	if err := small.Delete(0); err != ErrTooSmall {
		t.Fatalf("expected ErrTooSmall, got %v", err)
	}
}

func TestDeleteCoordinator(t *testing.T) {
	// Deleting the simulator of vertex 0 must hand the coordinator role
	// to the adopting node without breaking anything.
	nw := mustNew(t, 16, DefaultConfig())
	for i := 0; i < 8; i++ {
		coord := nw.Coordinator()
		if err := nw.Delete(coord); err != nil {
			t.Fatal(err)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("after deleting coordinator %d: %v", coord, err)
		}
		if nw.Coordinator() == coord {
			t.Fatal("coordinator unchanged after deletion")
		}
	}
}

// churn drives mixed random operations and validates invariants after
// every step.
func churn(t *testing.T, nw *Network, steps int, pInsert float64, seed int64, checkEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < pInsert || nw.Size() <= 6 {
			attach := nodes[rng.Intn(len(nodes))]
			if err := nw.Insert(nw.FreshID(), attach); err != nil {
				t.Fatalf("step %d insert: %v", i, err)
			}
		} else {
			victim := nodes[rng.Intn(len(nodes))]
			if err := nw.Delete(victim); err != nil {
				t.Fatalf("step %d delete %d: %v", i, victim, err)
			}
		}
		if checkEvery > 0 && i%checkEvery == 0 {
			if err := nw.CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s): %v\nstag: %s", i, nw.LastStep().Op, err, nw.RebuildDebug())
			}
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("final: %v", err)
	}
}

func TestChurnMixedSimplified(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Simplified
	nw := mustNew(t, 24, cfg)
	churn(t, nw, 400, 0.5, 42, 1)
}

func TestChurnMixedStaggered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Staggered
	nw := mustNew(t, 24, cfg)
	churn(t, nw, 400, 0.5, 42, 1)
}

func TestChurnInsertHeavyForcesInflation(t *testing.T) {
	for _, mode := range []RecoveryMode{Simplified, Staggered} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		nw := mustNew(t, 16, cfg)
		p0 := nw.P()
		churn(t, nw, 600, 0.95, 7, 1)
		if nw.P() <= p0 {
			t.Fatalf("mode %v: no inflation after insert-heavy churn (p=%d, n=%d)", mode, nw.P(), nw.Size())
		}
		inflations := 0
		for _, m := range nw.History() {
			if m.Recovery == RecoveryInflate || m.StaggerStarted {
				inflations++
			}
		}
		if inflations == 0 {
			t.Fatalf("mode %v: no inflation recorded", mode)
		}
	}
}

func TestChurnDeleteHeavyForcesDeflation(t *testing.T) {
	for _, mode := range []RecoveryMode{Simplified, Staggered} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		nw := mustNew(t, 16, cfg)
		// Grow first so there is room to shrink.
		churn(t, nw, 700, 1.0, 11, 50)
		pGrown := nw.P()
		churn(t, nw, 900, 0.02, 13, 1)
		if nw.P() >= pGrown {
			t.Fatalf("mode %v: no deflation after delete-heavy churn (p=%d, n=%d)", mode, nw.P(), nw.Size())
		}
	}
}

func TestLoadsBoundedUnderChurn(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 32, cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.5 || nw.Size() <= 6 {
			nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			nw.Delete(nodes[rng.Intn(len(nodes))])
		}
		bound := 4 * cfg.Zeta
		if active, _ := nw.Rebuilding(); active {
			bound = 8 * cfg.Zeta
		}
		if ml := nw.MaxLoad(); ml > bound {
			t.Fatalf("step %d: max load %d exceeds %d", i, ml, bound)
		}
	}
}

func TestSpectralGapConstantUnderChurn(t *testing.T) {
	// Lemma 7 / Lemma 9(b): the gap never collapses, at any step,
	// including mid-rebuild.
	cfg := DefaultConfig()
	nw := mustNew(t, 24, cfg)
	rng := rand.New(rand.NewSource(9))
	minGap := math.Inf(1)
	for i := 0; i < 300; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.6 || nw.Size() <= 6 {
			nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			nw.Delete(nodes[rng.Intn(len(nodes))])
		}
		if i%10 == 0 {
			if gap := spectral.Gap(nw.Graph()); gap < minGap {
				minGap = gap
			}
		}
	}
	if minGap < 0.008 {
		t.Fatalf("spectral gap collapsed to %v", minGap)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []StepMetrics {
		cfg := DefaultConfig()
		nw, _ := New(16, cfg)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 120; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < 0.5 || nw.Size() <= 6 {
				nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
			} else {
				nw.Delete(nodes[rng.Intn(len(nodes))])
			}
		}
		return nw.History()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestAdversarialAttachToSameVictim(t *testing.T) {
	// Failure injection: the adversary attaches every new node to the
	// same victim; constant degree must survive because the attachment
	// edge is dropped after recovery.
	nw := mustNew(t, 16, DefaultConfig())
	for i := 0; i < 150; i++ {
		if err := nw.Insert(nw.FreshID(), 0); err != nil {
			t.Fatal(err)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if d := nw.Graph().DistinctDegree(0); d > 3*4*nw.cfg.Zeta {
		t.Fatalf("victim degree grew to %d", d)
	}
}

func TestDeleteHighestLoadAdversary(t *testing.T) {
	// Adaptive adversary: always delete the most loaded node (it knows
	// the full state). Loads must stay bounded.
	cfg := DefaultConfig()
	nw := mustNew(t, 48, cfg)
	for i := 0; i < 40; i++ {
		var victim NodeID
		best := -1
		for _, u := range nw.Nodes() {
			if l := nw.Load(u); l > best {
				best = l
				victim = u
			}
		}
		if err := nw.Delete(victim); err != nil {
			if err == ErrTooSmall {
				break
			}
			t.Fatal(err)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestWalkExhaustionZeroInNormalChurn(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 24, cfg)
	churn(t, nw, 300, 0.5, 21, 0)
	if nw.walkExhaustion != 0 {
		t.Fatalf("walk exhaustion fallback fired %d times", nw.walkExhaustion)
	}
}

func TestHistoryAndAccessors(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	if (nw.LastStep() != StepMetrics{}) {
		t.Fatal("empty history should yield zero metrics")
	}
	nw.Insert(nw.FreshID(), 0)
	if len(nw.History()) != 1 {
		t.Fatal("history not recorded")
	}
	if nw.SpareCount() <= 0 || nw.LowCount() <= 0 {
		t.Fatal("counters not tracking")
	}
	if nw.OwnerOf(0) != nw.Coordinator() {
		t.Fatal("coordinator must simulate vertex 0")
	}
	if nw.OrphanRescues() != 0 {
		t.Fatal("unexpected orphan rescues")
	}
}

// TestEdgeLogDropsSpikeCapacity drives a Simplified network into a
// one-step deflation whose raw edge log outgrows edgeLogRetainCap, and
// checks that the step's end releases the spike's backing array rather
// than pinning it for the rest of the run.
func TestEdgeLogDropsSpikeCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Simplified
	nw := mustNew(t, 4096, cfg)
	spike := 0
	nw.SetEdgeObserver(func(_ int, d []graph.EdgeDelta) { spike = max(spike, len(d)) })
	rng := rand.New(rand.NewSource(1))
	for i := 0; spike <= edgeLogRetainCap; i++ {
		if i == 4096 {
			t.Fatalf("no step's diff exceeded %d entries (largest %d)", edgeLogRetainCap, spike)
		}
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(nw.edgeLog); c > edgeLogRetainCap {
		t.Fatalf("edge log keeps capacity %d after the spike, bound %d", c, edgeLogRetainCap)
	}
}

// TestOneStepRebuildCommitDeterministic runs one Simplified network
// (seed 3) to just past its first one-step inflation several times. The
// commit must leave the same dirty list, whose order picks the dirty
// nodes the next sampled audit checks, and the same vertex arena every
// time: neither may follow Go's randomized map order.
func TestOneStepRebuildCommitDeterministic(t *testing.T) {
	run := func() ([]NodeID, []Vertex) {
		nw := pastOneStepRebuild(t)
		return slices.Clone(nw.st.dirtyList), slices.Clone(nw.st.arena.buf)
	}
	dirty, arena := run()
	for i := 1; i < 4; i++ {
		d, a := run()
		if !slices.Equal(d, dirty) {
			t.Fatalf("run %d: dirty list after the rebuild differs from run 0's", i)
		}
		if !slices.Equal(a, arena) {
			t.Fatalf("run %d: vertex arena after the rebuild differs from run 0's", i)
		}
	}
}

// pastOneStepRebuild returns New(64) in Simplified mode with seed 3,
// grown by inserts at uniformly sampled nodes until its first one-step
// inflation has committed: the step just run is the rebuild.
func pastOneStepRebuild(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = Simplified
	cfg.Seed = 3
	nw := mustNew(t, 64, cfg)
	rng := rand.New(rand.NewSource(3))
	for p0 := nw.P(); nw.P() == p0; {
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}
