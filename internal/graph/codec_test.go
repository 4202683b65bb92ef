package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// churnedGraph builds a graph whose slot table has holes and a
// non-trivial free-slot stack: grow, delete interior nodes, regrow.
func churnedGraph(t testing.TB, seed int64, n int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New()
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		u := NodeID(i)
		g.AddNode(u)
		ids = append(ids, u)
	}
	for step := 0; step < 6*n; step++ {
		switch rng.Intn(5) {
		case 0:
			u := NodeID(1000 + step)
			g.AddNode(u)
			ids = append(ids, u)
		case 1:
			if len(ids) > 4 {
				i := rng.Intn(len(ids))
				g.RemoveNode(ids[i])
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		default:
			u := ids[rng.Intn(len(ids))]
			v := ids[rng.Intn(len(ids))]
			if rng.Intn(4) == 0 {
				g.RemoveEdge(u, v)
			} else {
				g.AddEdgeMult(u, v, 1+rng.Intn(3))
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("churned graph invalid: %v", err)
	}
	return g
}

func decodeInto(t *testing.T, g *Graph, data []byte) *Graph {
	t.Helper()
	out := New()
	if err := out.DecodeBinary(wire.NewDecoder(data)); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		g := churnedGraph(t, seed, 64)
		enc := wire.NewEncoder(nil)
		g.AppendBinary(enc)
		got := decodeInto(t, g, enc.Bytes())

		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: decoded graph invalid: %v", seed, err)
		}
		if got.Epoch() != g.Epoch() {
			t.Fatalf("seed %d: epoch %d != %d", seed, got.Epoch(), g.Epoch())
		}
		if got.NumEdges() != 0 {
			t.Fatalf("seed %d: decoded %d edges from a slot table", seed, got.NumEdges())
		}
		requireSameSlots(t, fmt.Sprintf("seed %d", seed), got, g)
		// The owner re-adds the edges it derives and restores the epoch;
		// the result is the original graph.
		for _, e := range g.Edges() {
			got.AddEdgeMult(e.U, e.V, e.Mult)
		}
		got.SetEpoch(g.Epoch())
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: refilled graph invalid: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Edges(), g.Edges()) {
			t.Fatalf("seed %d: edge sets differ", seed)
		}
		// Future slot assignment must match: add fresh nodes to both and
		// compare the slots they land in. Capture the bound up front —
		// each added node past the free-slot stack grows Slots() by one.
		fresh := g.Slots() + 4
		for i := 0; i < fresh; i++ {
			u := NodeID(1<<40) + NodeID(i)
			g.AddNode(u)
			got.AddNode(u)
			ws, _ := g.SlotOf(u)
			gs, _ := got.SlotOf(u)
			if ws != gs {
				t.Fatalf("seed %d: fresh node %d landed in slot %d, want %d", seed, u, gs, ws)
			}
		}
	}
}

// requireSameSlots requires got's slot table to equal want's exactly,
// not just isomorphically: the same id in every slot, live or stale,
// and the same free-slot stack.
func requireSameSlots(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.Slots() != want.Slots() {
		t.Fatalf("%s: slots %d != %d", tag, got.Slots(), want.Slots())
	}
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Fatalf("%s: slot ids differ", tag)
	}
	for s := int32(0); s < int32(want.Slots()); s++ {
		wu, wok := want.NodeAt(s)
		gu, gok := got.NodeAt(s)
		if wu != gu || wok != gok {
			t.Fatalf("%s: slot %d holds (%d, live %v), want (%d, live %v)", tag, s, gu, gok, wu, wok)
		}
	}
	if !reflect.DeepEqual(got.freeSlots, want.freeSlots) {
		t.Fatalf("%s: free-slot stacks differ: %v vs %v", tag, got.freeSlots, want.freeSlots)
	}
}

func TestCodecHooksFireAscending(t *testing.T) {
	g := churnedGraph(t, 3, 32)
	enc := wire.NewEncoder(nil)
	g.AppendBinary(enc)

	out := New()
	var slots []int32
	out.SetSlotHooks(func(u NodeID, s int32) {
		slots = append(slots, s)
	}, nil)
	if err := out.DecodeBinary(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(slots) != g.NumNodes() {
		t.Fatalf("assign hook fired %d times, want %d", len(slots), g.NumNodes())
	}
	for i := 1; i < len(slots); i++ {
		if slots[i] <= slots[i-1] {
			t.Fatalf("assign hooks not ascending: %v", slots)
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	g := churnedGraph(t, 5, 32)
	enc := wire.NewEncoder(nil)
	g.AppendBinary(enc)
	data := enc.Bytes()

	// Truncation at every prefix must error, never panic or accept.
	for cut := 0; cut < len(data); cut++ {
		out := New()
		if err := out.DecodeBinary(wire.NewDecoder(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	// Decoding into a non-empty graph must be refused.
	out := New()
	out.AddNode(1)
	if err := out.DecodeBinary(wire.NewDecoder(data)); err == nil {
		t.Fatal("decode into non-empty graph accepted")
	}
}

// straddleGraph churns a graph whose ids straddle the dense id->slot
// budget (4*slots+256 cells): small ids that resolve through the dense
// array, ids past the budget, ids at and beyond 2^32, and negative ids,
// the last three map-only. Deletions leave freed slots holding the
// stale id of their last occupant; some of those ids come back in a
// different slot.
func straddleGraph(t testing.TB, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mint := func(i int) NodeID {
		switch i % 4 {
		case 0:
			return NodeID(i)
		case 1:
			return NodeID(5000 + i)
		case 2:
			return NodeID(1<<32 + i)
		default:
			return NodeID(-1 - i)
		}
	}
	g := New()
	var live, dead []NodeID
	for i := 0; i < 48; i++ {
		live = append(live, mint(i))
		g.AddNode(mint(i))
	}
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(8); {
		case r == 0:
			u := mint(48 + step)
			g.AddNode(u)
			live = append(live, u)
		case r == 1 && len(live) > 8:
			i := rng.Intn(len(live))
			g.RemoveNode(live[i])
			dead = append(dead, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case r == 2 && len(dead) > 0:
			i := rng.Intn(len(dead)) // a stale id comes back
			g.AddNode(dead[i])
			live = append(live, dead[i])
			dead[i] = dead[len(dead)-1]
			dead = dead[:len(dead)-1]
		default:
			u := live[rng.Intn(len(live))]
			v := live[rng.Intn(len(live))]
			if rng.Intn(4) == 0 {
				g.RemoveEdge(u, v)
			} else {
				g.AddEdgeMult(u, v, 1+rng.Intn(3))
			}
		}
	}
	// End with stale ids parked on the free stack, one of them live
	// again in another slot.
	for i := 0; i < 6; i++ {
		g.RemoveNode(live[i])
	}
	g.AddNode(live[0])
	if err := g.Validate(); err != nil {
		t.Fatalf("straddle graph invalid: %v", err)
	}
	return g
}

// straddleCase checks that straddleGraph(seed) covers every id class
// the golden tests pin: ids on and off the dense path, negative ids, and
// free slots whose stale id is absent or live again elsewhere.
func straddleCase(t *testing.T, seed int64) *Graph {
	t.Helper()
	g := straddleGraph(t, seed)
	var small, big, neg, stale, moved int
	for _, u := range g.Nodes() {
		switch {
		case u < 0:
			neg++
		case u >= 1<<32:
			big++
		case u < 256:
			small++
		}
	}
	for _, s := range g.freeSlots {
		if ls, ok := g.SlotOf(g.ids[s]); !ok {
			stale++
		} else if ls != s {
			moved++
		}
	}
	if small == 0 || big == 0 || neg == 0 || stale == 0 || moved == 0 || len(g.dense) == 0 {
		t.Fatalf("seed %d: graph misses a pinned case: %d small, %d >= 2^32, %d negative live ids, %d free slots with absent and %d with re-added ids, dense len %d",
			seed, small, big, neg, stale, moved, len(g.dense))
	}
	return g
}

// TestCodecGoldenHash pins AppendBinary's bytes (codec version 2, the
// slot table without edges) for graphs whose ids sit both on and off
// the dense id->slot path. The engine's golden checkpoint hashes cover
// only engine-minted ids, which are all dense.
func TestCodecGoldenHash(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "91009162128fd4415d919cbd11d3362d65cb5636c47c1f7af3b78dbc54ccc025"},
		{2, "1d5dfeeea4b98d16ef377f8fac90c6f30690a20eb2cf31989f5e68e9b36afd30"},
	} {
		g := straddleCase(t, tc.seed)
		enc := wire.NewEncoder(nil)
		g.AppendBinary(enc)
		sum := sha256.Sum256(enc.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("seed %d: AppendBinary SHA-256 %s, want %s: the graph encoding changed", tc.seed, got, tc.want)
		}
	}
}

// TestCodecDecodesV1 decodes the committed version-1 encodings of the
// straddle graphs, which carry every edge (testdata/codec-v1, written by
// the last version-1 encoder; gen.sh there regenerates them). Their
// SHA-256s are the hashes that encoder was pinned to, and each must
// decode to its graph exactly: slot table, free-slot stack, epoch and
// edges.
func TestCodecDecodesV1(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "dd2cb039ff94587abd225b93faf89abb39a617b35a38ab073aa9833b7c8dcc60"},
		{2, "4350bf0f4a64611c6190d8a189f86b15e7e45dcaf24094a65705a0d1a081cde0"},
	} {
		data, err := os.ReadFile(fmt.Sprintf("testdata/codec-v1/straddle-%d.graph", tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Fatalf("seed %d: fixture SHA-256 %s, want %s", tc.seed, got, tc.want)
		}
		g := straddleCase(t, tc.seed)
		got := decodeInto(t, g, data)
		tag := fmt.Sprintf("seed %d", tc.seed)
		requireSameSlots(t, tag, got, g)
		if got.Epoch() != g.Epoch() {
			t.Fatalf("%s: epoch %d != %d", tag, got.Epoch(), g.Epoch())
		}
		if got.NumEdges() == 0 || !reflect.DeepEqual(got.Edges(), g.Edges()) {
			t.Fatalf("%s: decoded edges differ from the graph's", tag)
		}
	}
}
