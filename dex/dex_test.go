package dex_test

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/dex"
	"repro/internal/dht"
)

// TestQuickstartRoundTrip is the documented happy path, exercised
// through the public API only: construct with options, store data in a
// DHT layered on the event stream, churn the overlay hard (including at
// least one full virtual-graph rebuild), and read everything back.
func TestQuickstartRoundTrip(t *testing.T) {
	nw, err := dex.New(
		dex.WithInitialSize(24),
		dex.WithMode(dex.Staggered),
		dex.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	store := dht.New(nw)
	defer store.Close()

	const keys = 150
	kv := func(i int) (string, string) {
		return "key-" + string(rune('a'+i%26)) + "-" + strconv.Itoa(i), "value-" + strconv.Itoa(i)
	}
	for i := 0; i < keys; i++ {
		k, v := kv(i)
		store.Put(nw.Nodes()[i%nw.Size()], k, v)
	}

	// Insert/delete churn through an inflation.
	rng := rand.New(rand.NewSource(5))
	p0 := nw.P()
	for i := 0; i < 800; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.65 || nw.Size() <= 6 {
			if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if nw.P() == p0 {
		t.Fatalf("insert-heavy churn never inflated (p stayed %d)", p0)
	}
	if store.Rehashes == 0 {
		t.Fatal("DHT never observed a rebuild through the event stream")
	}

	for i := 0; i < keys; i++ {
		k, want := kv(i)
		got, ok, s := store.Get(nw.Nodes()[0], k)
		if !ok || got != want {
			t.Fatalf("round trip lost %q: got %q, ok=%v", k, got, ok)
		}
		if s.Messages <= 0 {
			t.Fatalf("Get(%q) reported no cost", k)
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants after round trip: %v", err)
	}
	if len(nw.History()) != 800 {
		t.Fatalf("history has %d steps, want 800", len(nw.History()))
	}
}

// TestSentinelErrors verifies that the re-exported sentinels match what
// operations return, via errors.Is across the package boundary.
func TestSentinelErrors(t *testing.T) {
	nw, err := dex.New(dex.WithInitialSize(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Insert(0, 1); !errors.Is(err, dex.ErrDuplicateID) {
		t.Fatalf("duplicate insert: got %v, want ErrDuplicateID", err)
	}
	if err := nw.Insert(nw.FreshID(), 9999); !errors.Is(err, dex.ErrUnknownNode) {
		t.Fatalf("bad attach: got %v, want ErrUnknownNode", err)
	}
	if err := nw.Delete(9999); !errors.Is(err, dex.ErrUnknownNode) {
		t.Fatalf("bad delete: got %v, want ErrUnknownNode", err)
	}
	sawTooSmall := false
	for i := 0; i < 6; i++ {
		if err := nw.Delete(nw.Nodes()[0]); err != nil {
			if !errors.Is(err, dex.ErrTooSmall) {
				t.Fatalf("shrink floor: got %v, want ErrTooSmall", err)
			}
			sawTooSmall = true
			break
		}
	}
	if !sawTooSmall {
		t.Fatal("never hit the 4-node floor")
	}
}

// TestOptionValidation checks that New rejects bad options instead of
// building a broken network.
func TestOptionValidation(t *testing.T) {
	bad := map[string]dex.Option{
		"initial size < 4": dex.WithInitialSize(3),
		"zeta < 2":         dex.WithZeta(1),
		"theta = 0":        dex.WithTheta(0),
		"theta > 1/16":     dex.WithTheta(0.25), // breaks Lemma 9 within a few hundred steps

		"walk factor < 1": dex.WithWalkFactor(0),
		"unknown mode":    dex.WithMode(dex.Mode(42)),
	}
	for name, opt := range bad {
		if _, err := dex.New(opt); err == nil {
			t.Errorf("%s: New accepted the bad option", name)
		}
	}
	if _, err := dex.New(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// TestSeedAndRNGEquivalence: equal seeds must replay identically.
// WithSeed is the one way to seed the façade, so the seed is the whole
// RNG state.
func TestSeedAndRNGEquivalence(t *testing.T) {
	build := func(opt dex.Option) []dex.StepMetrics {
		nw, err := dex.New(dex.WithInitialSize(16), opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 120; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < 0.6 || nw.Size() <= 6 {
				if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return nw.History()
	}
	a := build(dex.WithSeed(99))
	b := build(dex.WithSeed(99))
	if len(a) != len(b) {
		t.Fatalf("history lengths diverged: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: same seed diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestWithAudit runs churn with per-operation invariant auditing on; any
// violation would surface as an operation error.
func TestWithAudit(t *testing.T) {
	nw, err := dex.New(dex.WithInitialSize(12), dex.WithAuditMode(dex.AuditFull), dex.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 80; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.5 || nw.Size() <= 6 {
			err = nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			err = nw.Delete(nodes[rng.Intn(len(nodes))])
		}
		if err != nil {
			t.Fatalf("audited step %d: %v", i, err)
		}
	}
}

// TestMaintainerContract drives *Network purely through the public
// Maintainer interface.
func TestMaintainerContract(t *testing.T) {
	nw, err := dex.New(dex.WithInitialSize(10), dex.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var m dex.Maintainer = nw
	if err := m.Insert(m.FreshID(), m.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	if c := m.LastCost(); c.Messages <= 0 || c.Rounds <= 0 {
		t.Fatalf("LastCost reported a free insert: %+v", c)
	}
	if m.Size() != 11 {
		t.Fatalf("Size = %d, want 11", m.Size())
	}
	if !m.Graph().Connected() {
		t.Fatal("overlay disconnected")
	}
	if _, ok := m.(dex.InvariantChecker); !ok {
		t.Fatal("*Network should satisfy InvariantChecker")
	}
	if _, ok := m.(dex.Coordinated); !ok {
		t.Fatal("*Network should satisfy Coordinated")
	}
}

// TestBatchOperations exercises the Corollary 2 surface through dex.
func TestBatchOperations(t *testing.T) {
	nw, err := dex.New(dex.WithInitialSize(32), dex.WithMode(dex.Simplified), dex.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	var specs []dex.InsertSpec
	nodes := nw.Nodes()
	for i := 0; i < 8; i++ {
		specs = append(specs, dex.InsertSpec{ID: nw.FreshID(), Attach: nodes[i]})
	}
	if err := nw.InsertBatch(specs); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 40 {
		t.Fatalf("size after batch insert = %d, want 40", nw.Size())
	}
	if st := nw.LastStep(); st.Op != dex.OpBatchInsert {
		t.Fatalf("last op = %v, want batch-insert", st.Op)
	}
	// The deletion model demands a victim set that keeps the remainder
	// connected; retry random sets until one is legal, as an adversary
	// would.
	rng := rand.New(rand.NewSource(4))
	deleted := false
	for try := 0; try < 32 && !deleted; try++ {
		nodes := nw.Nodes()
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		deleted = nw.DeleteBatch(nodes[:3]) == nil
	}
	if !deleted {
		t.Fatal("no legal delete batch found in 32 tries")
	}
	if st := nw.LastStep(); st.Op != dex.OpBatchDelete {
		t.Fatalf("last op = %v, want batch-delete", st.Op)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
