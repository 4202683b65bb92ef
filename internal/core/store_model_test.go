package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file keeps the store's historical map-keyed representation as a
// test-only reference model. storeModel holds per-node state in a plain
// map keyed by node id, each vertex set a sorted slice, where every
// operation is obviously right. FuzzStoreOps and
// TestStoreMatchesModel drive random valid operation sequences through
// the dense store — over a real graph.Graph, so slot reuse and the slot
// hooks run for real — and the model in lockstep, and compareStore
// checks every observable of every live node after every operation: the
// store-level counterpart of FuzzGraphOps for the graph arena.
// TestDenseMatchesMapOracle compares a running engine's store against
// the model its virtual mapping implies (modelOf).

// modelNode is one live node's state in the model. The vertex sets are
// plain sorted slices, kept sorted by binary-search insertion, so
// comparing one with the store's run costs a single pass: re-sorting a
// set after every operation made bulk-growth inputs quadratic, and the
// fuzzer finds those within seconds.
type modelNode struct {
	sim, nxt          []Vertex // Sim(u) and NewSim(u), sorted, no duplicates
	load              int
	effNew, unprocOld int
	dirty             bool // marked since the last reset, or since the node was added
}

// set returns Sim(u) (nxt false) or NewSim(u) (nxt true).
func (n *modelNode) set(nxt bool) *[]Vertex {
	if nxt {
		return &n.nxt
	}
	return &n.sim
}

// setInsert adds x to the sorted set and reports whether it was absent.
func setInsert(set *[]Vertex, x Vertex) bool {
	i, found := slices.BinarySearch(*set, x)
	if !found {
		*set = slices.Insert(*set, i, x)
	}
	return !found
}

// storeModel is the map-keyed reference for the dense store.
type storeModel struct {
	nodes     map[NodeID]*modelNode
	list      []NodeID // sampling mirror: append on add, swap-remove on delete
	dirtyList []NodeID // one entry per node incarnation marked since the last reset
}

func newStoreModel() *storeModel { return &storeModel{nodes: map[NodeID]*modelNode{}} }

func (m *storeModel) addNode(u NodeID) {
	m.nodes[u] = &modelNode{}
	m.list = append(m.list, u)
}

func (m *storeModel) removeNode(u NodeID) {
	delete(m.nodes, u)
	i, last := slices.Index(m.list, u), len(m.list)-1
	m.list[i] = m.list[last]
	m.list = m.list[:last]
}

func (m *storeModel) markDirty(u NodeID) {
	if n := m.nodes[u]; n != nil && !n.dirty {
		n.dirty = true
		m.dirtyList = append(m.dirtyList, u)
	}
}

func (m *storeModel) resetDirty() {
	m.dirtyList = m.dirtyList[:0]
	for _, n := range m.nodes {
		n.dirty = false
	}
}

// compareStore checks every observable of the dense store against the
// model: the node set and sampling-mirror order, the dirty list, and for
// each live node its mirror position, load, both vertex sets (as exact
// sorted runs) and their maxima, the stagger counters and its dirty
// stamp. Ids below ids that the model holds no node for must read as
// absent with zero load.
func compareStore(st *state, m *storeModel, ids int) error {
	if err := st.checkCoherence(); err != nil {
		return err
	}
	if st.size() != len(m.nodes) || len(st.nodeList) != len(m.list) {
		return fmt.Errorf("sampling mirror %v, model %v", st.nodeList, m.list)
	}
	for i, e := range st.nodeList {
		if s, ok := st.g.SlotOf(e.id); e.id != m.list[i] || !ok || e.slot != s {
			return fmt.Errorf("sampling mirror entry %d is %v, model node %d at slot %d", i, e, m.list[i], s)
		}
	}
	if !slices.Equal(st.dirtyList, m.dirtyList) {
		return fmt.Errorf("dirty list %v, model %v", st.dirtyList, m.dirtyList)
	}
	for i, u := range m.list {
		n := m.nodes[u]
		s, ok := st.g.SlotOf(u)
		if !ok || !st.has(u) {
			return fmt.Errorf("node %d has no slot", u)
		}
		if p := st.mirrorPosAt(s); p != i {
			return fmt.Errorf("node %d: mirror position %d, want %d", u, p, i)
		}
		if st.loadAt(s) != n.load || st.loadOf(u) != n.load {
			return fmt.Errorf("node %d: load %d (by id %d), model %d", u, st.loadAt(s), st.loadOf(u), n.load)
		}
		for _, nxt := range []bool{false, true} {
			want, got := *n.set(nxt), st.setAt(s, nxt)
			if !slices.Equal(got, want) || st.setLenAt(s, nxt) != len(want) {
				return fmt.Errorf("node %d (next cycle %v): set %v (len %d), model %v", u, nxt, got, st.setLenAt(s, nxt), want)
			}
			if len(want) > 0 && st.setMaxAt(s, nxt) != want[len(want)-1] {
				return fmt.Errorf("node %d (next cycle %v): max %d, model %d", u, nxt, st.setMaxAt(s, nxt), want[len(want)-1])
			}
		}
		if st.effNewAt(s) != n.effNew || st.unprocOldAt(s) != n.unprocOld {
			return fmt.Errorf("node %d: effNew %d unprocOld %d, model %d %d", u, st.effNewAt(s), st.unprocOldAt(s), n.effNew, n.unprocOld)
		}
		if (st.rows[s].dirtyAt == st.dirtyGen) != n.dirty {
			return fmt.Errorf("node %d: dirty stamp %d at generation %d, model dirty=%v", u, st.rows[s].dirtyAt, st.dirtyGen, n.dirty)
		}
	}
	for u := NodeID(0); u < NodeID(ids); u++ {
		if m.nodes[u] == nil && (st.has(u) || st.loadOf(u) != 0) {
			return fmt.Errorf("absent node %d reads as present (load %d)", u, st.loadOf(u))
		}
	}
	return nil
}

// The fuzzed store operations, selected by op % numStoreOps.
const (
	opAddNode = iota
	opRemoveNode
	opSimAdd
	opNewAdd
	opSimRemove
	opNewRemove
	opSimGrow
	opNewGrow
	opSimReset
	opPromote
	opPutLoad
	opAddEffNew
	opAddUnprocOld
	opMarkDirty
	opResetDirty
	opSkipToWrap
	numStoreOps
)

// newStorePair returns an empty dense store over a fresh graph, and the
// empty model.
func newStorePair(zeta int) (*state, *storeModel) {
	st := &state{}
	st.init(graph.New(), zeta)
	return st, newStoreModel()
}

// applyStoreOp decodes one (op, a, b) triple into a store operation and
// applies it to the dense store and the model alike. a is the node: an
// id for births and dirty marks, otherwise an index into the live list.
// b is the operation's argument. A triple that is invalid on the
// current state (a birth of a live id, a removal from an empty set) is
// a no-op, so every input decodes to a valid sequence.
func applyStoreOp(st *state, m *storeModel, op byte, a, b int) {
	k := op % numStoreOps
	switch k {
	case opAddNode:
		if u := NodeID(a); m.nodes[u] == nil {
			st.addNode(u)
			m.addNode(u)
		}
		return
	case opMarkDirty:
		if s, ok := st.g.SlotOf(NodeID(a)); ok {
			st.markDirtyAt(NodeID(a), s)
		}
		m.markDirty(NodeID(a))
		return
	case opResetDirty:
		st.resetDirty()
		m.resetDirty()
		return
	case opSkipToWrap:
		// Stands in for the 2^32 resets before the stamp generation
		// wraps: the stamps written so far stay behind, as they would.
		st.resetDirty()
		m.resetDirty()
		st.dirtyGen = math.MaxUint32
		return
	}
	if len(m.list) == 0 {
		return
	}
	u := m.list[a%len(m.list)]
	n, s := m.nodes[u], st.slot(u)
	nxt := k == opNewAdd || k == opNewRemove || k == opNewGrow
	switch k {
	case opRemoveNode:
		st.removeNode(u, s)
		m.removeNode(u)
	case opSimAdd, opNewAdd:
		if x := Vertex(b); setInsert(n.set(nxt), x) {
			st.setAddAt(s, x, nxt)
		}
	case opSimRemove, opNewRemove:
		if set := n.set(nxt); len(*set) > 0 {
			i := b % len(*set)
			st.setRemoveAt(s, (*set)[i], nxt)
			*set = slices.Delete(*set, i, i+1)
		}
	case opSimGrow, opNewGrow:
		// b%64+1 vertices above the current maximum: bulk growth that
		// carries a run through its size classes, past bigRun.
		set, base := n.set(nxt), Vertex(0)
		if len(*set) > 0 {
			base = (*set)[len(*set)-1] + 1
		}
		for j := 0; j <= b%64; j++ {
			st.setAddAt(s, base+Vertex(j), nxt)
			setInsert(set, base+Vertex(j))
		}
	case opSimReset:
		// b distinct vertices in scrambled order (37 is a unit mod 512).
		vs := make([]Vertex, b)
		for j := range vs {
			vs[j] = Vertex((j*37 + b) % 512)
		}
		n.sim = slices.Sorted(slices.Values(vs))
		st.simReset(s, vs)
	case opPromote:
		st.promoteNew(s)
		n.sim, n.nxt = n.nxt, nil
		n.effNew, n.unprocOld = 0, 0
	case opPutLoad:
		st.putLoadDirtyAt(u, s, b)
		n.load = b
		m.markDirty(u)
	case opAddEffNew:
		st.addEffNewAt(s, int(int8(b)))
		n.effNew += int(int8(b))
	case opAddUnprocOld:
		st.addUnprocOldAt(s, int(int8(b)))
		n.unprocOld += int(int8(b))
	}
}

// FuzzStoreOps is the differential fuzzer for the dense store: the first
// byte picks zeta (2..8, which sizes the bigRun class), then every byte
// triple decodes through applyStoreOp into one operation applied to the
// store and the map-keyed model in lockstep, and compareStore must find
// them equal after each. The committed corpus under
// testdata/fuzz/FuzzStoreOps replays slot recycling, arena compaction
// past 2,048 cells, the snap-back of runs above bigRun, promotion in
// the middle of a stagger, and the dirty-generation wrap. Run it with
// `make fuzz-store` or
//
//	go test ./internal/core -run '^$' -fuzz FuzzStoreOps
func FuzzStoreOps(f *testing.F) {
	grow := []byte{0}
	for i := 0; i < 40; i++ {
		grow = append(grow, opAddNode, byte(i), 0, byte(opSimAdd+i%2), byte(i), byte(i*7))
	}
	f.Add(grow)
	churn := []byte{6}
	for i := 0; i < 120; i++ {
		churn = append(churn, byte(i*5), byte(i*11), byte(i*13))
	}
	f.Add(churn)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		st, m := newStorePair(2 + int(data[0]%7))
		for i := 1; i+2 < len(data); i += 3 {
			applyStoreOp(st, m, data[i], int(data[i+1]), int(data[i+2]))
			if err := compareStore(st, m, 256); err != nil {
				t.Fatalf("op %d %v: %v", i/3, data[i:i+3], err)
			}
		}
	})
}

// TestStoreMatchesModel replays seeded random operation sequences
// through FuzzStoreOps' decoder: small live sets with heavy set churn at
// three bigRun classes, and a birth-heavy sequence whose slot table
// passes 1024 slots (the case keeps its name from when that boundary
// split the columns into two shards). That sequence then drains, and
// the drain must compact the vertex arena while slots at or above 1024
// hold runs, so the one arena's repack is model-checked across the old
// boundary.
func TestStoreMatchesModel(t *testing.T) {
	const wideSlots = 1024
	for _, tc := range []struct {
		name                  string
		zeta, ids, ops, drain int // drain: extra ops after ops, half of them forced removals
		addBias               float64
		seed                  int64
	}{
		{"zeta=2", 2, 48, 3000, 0, 0.1, 1},
		{"zeta=5", 5, 48, 3000, 0, 0.1, 2},
		{"zeta=8", 8, 48, 3000, 0, 0.1, 3},
		{"two-shards", 8, 4000, 1800, 2000, 0.7, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			st, m := newStorePair(tc.zeta)
			wideCompactions := 0
			for i := 0; i < tc.ops+tc.drain; i++ {
				op := byte(rng.Intn(numStoreOps))
				switch r := rng.Float64(); {
				case i < tc.ops && r < tc.addBias:
					op = opAddNode
				case i >= tc.ops && r < 0.5:
					op = opRemoveNode
				}
				a, b := rng.Intn(tc.ids), rng.Intn(256)
				wideRuns, bufLen := runsFrom(st, wideSlots), len(st.arena.buf)
				applyStoreOp(st, m, op, a, b)
				if err := compareStore(st, m, tc.ids); err != nil {
					t.Fatalf("op %d (%d,%d,%d): %v", i, op, a, b, err)
				}
				// Only a compaction shortens the arena buffer: alloc
				// extends it and release parks runs on free lists.
				if wideRuns && len(st.arena.buf) < bufLen {
					wideCompactions++
				}
			}
			if tc.drain == 0 {
				return
			}
			if st.g.Slots() <= wideSlots {
				t.Fatalf("slot table holds %d slots, want more than %d", st.g.Slots(), wideSlots)
			}
			if wideCompactions == 0 {
				t.Fatalf("no arena compaction ran while slots >= %d held runs", wideSlots)
			}
		})
	}
}

// runsFrom reports whether any slot at or above from holds a vertex run.
func runsFrom(st *state, from int) bool {
	for s := from; s < len(st.rows); s++ {
		if st.rows[s].sim.cap+st.newRuns[s].cap > 0 {
			return true
		}
	}
	return false
}

// modelOf projects the store contents a running engine's virtual
// mapping implies: Sim and NewSim from Phi and Phi', loads as their
// sizes, and the stagger counters from the processed flags. The
// sampling mirror and the dirty set record history rather than follow
// from the mapping, so the projection copies them from the store.
func modelOf(nw *Network) (*storeModel, error) {
	m := newStoreModel()
	for _, e := range nw.st.nodeList {
		m.addNode(e.id)
	}
	s := nw.stag
	for x, u := range nw.simOf {
		if s != nil && s.dropped(Vertex(x)) {
			continue
		}
		if m.nodes[u] == nil {
			return nil, fmt.Errorf("vertex %d mapped to node %d, which is not in the mirror", x, u)
		}
		setInsert(&m.nodes[u].sim, Vertex(x))
	}
	if s != nil {
		for y, u := range s.newSimOf {
			if u < 0 {
				continue
			}
			if m.nodes[u] == nil {
				return nil, fmt.Errorf("new vertex %d mapped to node %d, which is not in the mirror", y, u)
			}
			setInsert(&m.nodes[u].nxt, Vertex(y))
		}
	}
	for _, u := range m.list {
		n := m.nodes[u]
		n.load = len(n.sim) + len(n.nxt)
		if s != nil {
			n.effNew = len(n.nxt)
			for _, x := range n.sim {
				if !s.processed(x) {
					n.unprocOld++
					n.effNew += s.projection(x)
				}
			}
		}
		n.dirty = nw.st.rows[nw.st.slot(u)].dirtyAt == nw.st.dirtyGen
	}
	m.dirtyList = append(m.dirtyList, nw.st.dirtyList...)
	return m, nil
}
