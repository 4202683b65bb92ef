package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestInsertBatchBasic(t *testing.T) {
	nw := mustNew(t, 32, DefaultConfig())
	var specs []InsertSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, InsertSpec{ID: nw.FreshID(), Attach: NodeID(i)})
	}
	if err := nw.InsertBatch(specs); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 40 {
		t.Fatalf("size = %d", nw.Size())
	}
	m := nw.LastStep()
	if m.Op != OpBatchInsert {
		t.Fatalf("op = %v", m.Op)
	}
	for _, s := range specs {
		if nw.Load(s.ID) < 1 {
			t.Fatalf("batch member %d has no vertex", s.ID)
		}
	}
}

func TestInsertBatchValidation(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	id := nw.FreshID()
	if err := nw.InsertBatch([]InsertSpec{{id, 0}, {id, 1}}); err == nil {
		t.Fatal("repeated id accepted")
	}
	if err := nw.InsertBatch([]InsertSpec{{nw.FreshID(), 999}}); err == nil {
		t.Fatal("unknown attach accepted")
	}
	var crowd []InsertSpec
	for i := 0; i < maxAttachFanIn+1; i++ {
		crowd = append(crowd, InsertSpec{nw.FreshID(), 0})
	}
	if err := nw.InsertBatch(crowd); err == nil {
		t.Fatal("fan-in restriction not enforced")
	}
	if err := nw.InsertBatch(nil); err != nil {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestDeleteBatchBasic(t *testing.T) {
	nw := mustNew(t, 32, DefaultConfig())
	ids := []NodeID{3, 7, 11, 19}
	if err := nw.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 28 {
		t.Fatalf("size = %d", nw.Size())
	}
	for _, id := range ids {
		if nw.Graph().HasNode(id) {
			t.Fatalf("victim %d survived", id)
		}
	}
}

func TestDeleteBatchValidation(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	if err := nw.DeleteBatch([]NodeID{999}); err == nil {
		t.Fatal("unknown victim accepted")
	}
	if err := nw.DeleteBatch([]NodeID{1, 1}); err == nil {
		t.Fatal("repeated victim accepted")
	}
	var all []NodeID
	for _, u := range nw.Nodes() {
		all = append(all, u)
	}
	if err := nw.DeleteBatch(all[:13]); err != ErrTooSmall {
		t.Fatalf("expected ErrTooSmall, got %v", err)
	}
}

// TestDeleteBatchRejections covers Section 5's two preconditions on a
// deletion batch: the remainder must stay connected, and every victim
// must keep a surviving neighbor. A refused batch must leave the
// network exactly as it was.
func TestDeleteBatchRejections(t *testing.T) {
	nw := mustNew(t, 64, DefaultConfig())
	snapChurn(t, nw, 3, 200)
	// nbrs lists u's neighbors other than u itself.
	nbrs := func(u NodeID) []NodeID {
		var out []NodeID
		for _, v := range nw.Graph().Neighbors(u) {
			if v != u {
				out = append(out, v)
			}
		}
		return out
	}
	nodes := nw.Nodes()
	slices.Sort(nodes)

	// Deleting every neighbor of the node with the fewest strands it.
	strand := nodes[0]
	for _, u := range nodes {
		if len(nbrs(u)) < len(nbrs(strand)) {
			strand = u
		}
	}
	// Deleting a node together with its neighbors leaves it none; pick
	// one whose deletion with them keeps the rest connected.
	isolate := NodeID(-1)
	for _, u := range nodes {
		rest := nw.Graph().Clone()
		rest.RemoveNode(u)
		for _, v := range nbrs(u) {
			rest.RemoveNode(v)
		}
		if rest.Connected() {
			isolate = u
			break
		}
	}
	if isolate < 0 {
		t.Fatal("no node can be deleted with its neighbors without disconnecting the rest")
	}

	for _, tc := range []struct {
		name    string
		ids     []NodeID
		wantErr string
	}{
		{"would-disconnect", nbrs(strand), "core: batch deletion would disconnect the network"},
		{"no-surviving-neighbor", append([]NodeID{isolate}, nbrs(isolate)...),
			fmt.Sprintf("core: victim %d has no surviving neighbor", isolate)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			totals, history := nw.Totals(), nw.History()
			overlay, epoch := nw.Graph().Clone(), nw.Graph().Epoch()
			err := nw.DeleteBatch(tc.ids)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("DeleteBatch(%v) error %v, want %q", tc.ids, err, tc.wantErr)
			}
			if nw.Totals() != totals || !reflect.DeepEqual(nw.History(), history) {
				t.Fatal("a refused batch changed the metrics")
			}
			if err := graphsEqual(nw.Graph(), overlay); err != nil || nw.Graph().Epoch() != epoch {
				t.Fatalf("a refused batch changed the overlay: %v (epoch %d, was %d)", err, nw.Graph().Epoch(), epoch)
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBatchChurnEpsilonFraction(t *testing.T) {
	// Corollary 2 regime: batches of ~n/16 nodes per step, alternating
	// insert and delete bursts, invariants audited each step.
	cfg := DefaultConfig()
	cfg.Mode = Simplified
	nw := mustNew(t, 64, cfg)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 30; step++ {
		n := nw.Size()
		batch := n / 16
		if batch < 1 {
			batch = 1
		}
		if step%2 == 0 {
			nodes := nw.Nodes()
			var specs []InsertSpec
			for i := 0; i < batch; i++ {
				specs = append(specs, InsertSpec{nw.FreshID(), nodes[rng.Intn(len(nodes))]})
			}
			if err := nw.InsertBatch(specs); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			nodes := nw.Nodes()
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			var victims []NodeID
			for _, u := range nodes {
				if len(victims) == batch {
					break
				}
				victims = append(victims, u)
			}
			if err := nw.DeleteBatch(victims); err != nil {
				// Connectivity-violating victim sets are the adversary's
				// problem; skip that batch like the model forbids it.
				continue
			}
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestNewWithMappingFigure1(t *testing.T) {
	// Reproduce Figure 1: Z(23) mapped 4-balanced onto 7 nodes.
	owner := make([]NodeID, 23)
	for x := range owner {
		owner[x] = NodeID(x * 7 / 23) // loads 3..4
	}
	nw, err := NewWithMapping(23, owner, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 7 {
		t.Fatalf("size = %d", nw.Size())
	}
	if nw.MaxLoad() > 4 {
		t.Fatalf("mapping not 4-balanced: max load %d", nw.MaxLoad())
	}
	// The network remains operable from this custom state.
	if err := nw.Insert(nw.FreshID(), 0); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithMappingValidation(t *testing.T) {
	if _, err := NewWithMapping(23, make([]NodeID, 5), DefaultConfig()); err == nil {
		t.Fatal("length mismatch accepted")
	}
	owner := make([]NodeID, 23) // everything on node 0: load 23 ches 4*zeta=32? fine; force violation
	cfg := DefaultConfig()
	cfg.Zeta = 4
	if _, err := NewWithMapping(23, owner, cfg); err == nil {
		t.Fatal("overloaded mapping accepted")
	}
}
