package core

import (
	"fmt"

	"repro/internal/graph"
)

// This file is the engine's per-node state store. Every piece of
// per-node bookkeeping the recovery algorithms read or write — the load
// table, the Sim(u) vertex sets, the dirty-node set, the O(1) sampling
// mirror, and the per-node staggering state (NewSim(u), effNew,
// unprocOld) — lives here, behind one small API, in one of two
// interchangeable representations:
//
//   - The dense backend (the default) is a slot-indexed columnar store
//     layered on the overlay graph's own slot table (graph.SlotOf /
//     NodeAt / SetSlotHooks): state is addressed by the node's dense
//     slot, not by hashing its id. Columns are sharded along contiguous
//     slot ranges of 1024 slots, so growth allocates a fixed-size block
//     without moving any existing column (per-slot state is pointer
//     stable for the node's lifetime), and walk stop predicates read
//     per-shard arrays without touching any engine-level map. Vertex
//     sets are small sorted runs inside a shard-local arena that
//     recycles through multiple-of-4 size-class free lists — the same
//     discipline as the graph arena — so steady-state churn allocates
//     nothing and a rebuild's transient 8*zeta-sized sets return their
//     cells to the shard when it commits. The dirty set is a generation
//     stamp plus an append list: resetting it is a counter bump, which
//     retires the overgrown-map clear() workaround for good.
//
//   - The map backend is the historical representation (Go maps keyed
//     by NodeID, nested maps for the vertex sets), kept verbatim in
//     behavior as the differential oracle: engine_equiv_test drives a
//     dense engine and a map engine through identical traces and
//     requires byte-identical History, mapping, and overlay at every
//     step. It is selected only by tests and the bench-core baseline
//     (Config.useMapState is unexported).
//
// Both backends make identical externally visible choices: every
// consumer of per-node state is order-independent (minimum, maximum,
// or an explicit sort), so representation never leaks into the seeded
// recovery outcome.

const (
	// shardBits fixes the shard granularity: 1 << shardBits contiguous
	// slots per shard. 1024 slots keeps a shard's fixed columns at
	// ~44KB — big enough that a million-node overlay needs only ~1000
	// shard pointers, small enough that sparse slot ranges don't strand
	// much memory.
	shardBits  = 10
	shardSlots = 1 << shardBits
	shardMask  = shardSlots - 1
)

// vset references one node's vertex run inside its shard's arena:
// b.buf[off:off+n] is the set, sorted ascending, with cap cells
// reserved (a multiple of 4).
type vset struct{ off, n, cap int32 }

// shard holds the columnar per-node state of one contiguous slot
// range. All columns are allocated at full shard size up front, so a
// slot's state never moves while its node lives.
type shard struct {
	load      []int32  // total load incl. staggering new vertices
	pos       []int32  // position in the sampling mirror (-1 when absent)
	dirtyAt   []uint32 // dirty-set generation stamp
	sim       []vset   // Sim(u): current-cycle vertices
	nxt       []vset   // NewSim(u): next-cycle vertices while staggering
	effNew    []int32  // generated + projected new vertices (staggering)
	unprocOld []int32  // unprocessed old vertices (staggering)
	bigRun    int32    // heavy-node capacity class, ~4*zeta (see runCap)
	arena     vertexArena
}

func newShard(bigRun int32) *shard {
	sh := &shard{
		load:      make([]int32, shardSlots),
		pos:       make([]int32, shardSlots),
		dirtyAt:   make([]uint32, shardSlots),
		sim:       make([]vset, shardSlots),
		nxt:       make([]vset, shardSlots),
		effNew:    make([]int32, shardSlots),
		unprocOld: make([]int32, shardSlots),
		bigRun:    bigRun,
	}
	for i := range sh.pos {
		sh.pos[i] = -1
	}
	return sh
}

// runCap maps a set size to its run capacity class. The ladder is
// deliberately flat — 8 cells for the steady regime (expected loads
// are O(p/n) <= 8), one 4*zeta-sized class for heavy nodes, +8 steps
// for transient adoption spikes beyond the Lemma 3 bound — so births,
// grows, and deaths trade runs in the *same* few classes and the free
// lists satisfy essentially every request. A fine-grained +4 ladder
// measured badly here: each node's capacity frontier kept moving into
// a class nothing had released yet, so the arena carved fresh tail
// cells forever (~6KB/op of append-doubling at 10^5 nodes) while the
// abandoned classes sat parked.
func (sh *shard) runCap(n int32) int32 {
	switch {
	case n == 0:
		return 0
	case n <= 8:
		return 8
	case n <= sh.bigRun:
		return sh.bigRun
	default:
		return (n + 7) &^ 7
	}
}

// vertexArena is a shard-local pool for the vertex runs, with
// multiple-of-4 size classes recycled through per-class free lists —
// the same scheme the graph arena uses for adjacency runs, scaled down
// to sets bounded by 8*zeta entries.
type vertexArena struct {
	buf       []Vertex
	free      [][]int32 // freed run offsets, indexed by capacity/4
	freeCells int
}

// alloc hands out a run of at least capn cells and returns its offset
// and true capacity. The exact size class is tried first, then larger
// classes (best-fit upward): different producers park runs in
// different classes — births grow through the 4/8/12 ladder while
// rebuild commits snug runs to their exact class — and without the
// upward fallback the starved class keeps carving fresh tail cells
// while the oversupplied one ratchets freeCells toward the compaction
// threshold (measured as ~8KB/op of amortized pool copying on steady
// 10^5-node churn). Over-granting wastes at most the class gap, which
// the vset records exactly and the next release returns whole.
func (a *vertexArena) alloc(capn int32) (off, got int32) {
	for class := int(capn / 4); class < len(a.free); class++ {
		if fl := a.free[class]; len(fl) > 0 {
			off := fl[len(fl)-1]
			a.free[class] = fl[:len(fl)-1]
			got := int32(class * 4)
			a.freeCells -= int(got)
			// Split an oversized grant and hand the tail back: without
			// this, every birth (an 8-cell request, the most frequent
			// allocation) swallows a whole big-class run, the big
			// classes starve, and growth requests carve fresh tail
			// cells forever — measured as ~900B/op of arena growth on
			// sustained 10^5-node churn windows.
			if rem := got - capn; rem >= 8 {
				a.release(off+capn, rem)
				got = capn
			}
			return off, got
		}
	}
	o := len(a.buf)
	if want := o + int(capn); cap(a.buf) >= want {
		a.buf = a.buf[:want]
	} else {
		a.buf = append(a.buf, make([]Vertex, capn)...)
	}
	return int32(o), capn
}

func (a *vertexArena) release(off, capn int32) {
	if capn == 0 {
		return
	}
	class := int(capn / 4)
	for len(a.free) <= class {
		a.free = append(a.free, nil)
	}
	a.free[class] = append(a.free[class], off)
	a.freeCells += int(capn)
}

// maybeCompact repacks the shard's arena when over half its cells sit
// on free lists, mirroring the graph arena's policy: a type-2 rebuild
// transiently doubles every set's size, and after it commits the big
// runs must not pin the pool's high-water mark. Called only at the top
// of set mutations, where no run offset is held across it.
func (sh *shard) maybeCompact() {
	a := &sh.arena
	if len(a.buf) <= 2048 || 2*a.freeCells <= len(a.buf) {
		return
	}
	total := int32(0)
	for i := range sh.sim {
		total += sh.sim[i].cap + sh.nxt[i].cap
	}
	newBuf := make([]Vertex, total, int(total)+int(total)/8+16)
	off := int32(0)
	repack := func(v *vset) {
		if v.cap == 0 {
			return
		}
		copy(newBuf[off:off+v.n], a.buf[v.off:v.off+v.n])
		v.off = off
		off += v.cap
	}
	for i := range sh.sim {
		repack(&sh.sim[i])
		repack(&sh.nxt[i])
	}
	a.buf = newBuf[:off]
	for i := range a.free {
		a.free[i] = a.free[i][:0]
	}
	a.freeCells = 0
}

// run returns the live view of a slot's vertex run.
func (sh *shard) run(col []vset, i int32) []Vertex {
	v := col[i]
	return sh.arena.buf[v.off : v.off+v.n]
}

// setAdd inserts x into the sorted run, growing through the free lists
// when full. Duplicate insertion is an engine bug and panics.
func (sh *shard) setAdd(col []vset, i int32, x Vertex) {
	sh.maybeCompact()
	v := &col[i]
	if v.n == v.cap {
		newOff, got := sh.arena.alloc(sh.runCap(v.n + 1))
		copy(sh.arena.buf[newOff:newOff+v.n], sh.arena.buf[v.off:v.off+v.n])
		sh.arena.release(v.off, v.cap)
		v.off, v.cap = newOff, got
	}
	run := sh.arena.buf[v.off : v.off+v.n+1]
	j := v.n
	for j > 0 && run[j-1] > x {
		run[j] = run[j-1]
		j--
	}
	if j > 0 && run[j-1] == x {
		panic(fmt.Sprintf("core: duplicate vertex %d in slot set", x))
	}
	run[j] = x
	v.n++
}

// setRemove deletes x from the run, panicking if absent. Runs at or
// below the bigRun class are deliberately not shrunk: a set's steady
// capacity is bounded by 4*zeta plus growth slack, churn then moves
// vertices with zero arena traffic, and the cases where capacity
// really collapses — rebuild commits and node deaths — release the
// whole run anyway (promoteNew, slotReleased). Unconditional
// shrink-on-remove measured as pure thrash: the release/alloc class
// churn kept pushing shards over the compaction threshold, costing
// ~8KB/op of amortized copying on steady 10^5-node churn. Runs
// *above* bigRun are the exception — see the snap-back below.
func (sh *shard) setRemove(col []vset, i int32, x Vertex) {
	v := &col[i]
	run := sh.arena.buf[v.off : v.off+v.n]
	j := int32(0)
	for j < v.n && run[j] != x {
		j++
	}
	if j == v.n {
		panic(fmt.Sprintf("core: removing absent vertex %d from slot set", x))
	}
	copy(run[j:], run[j+1:])
	v.n--
	// Snap back over-bigRun runs once the spike decays. Adoption spikes
	// are transient (Lemma 3), but without this the spiked capacity is
	// pinned until the node dies: every new spike then carves fresh tail
	// cells (the spike classes have nothing on their free lists), and
	// once a shard's spare capacity is gone the append reallocates the
	// whole ~600KB shard buffer — measured as ~900B/op of amortized heap
	// growth on sustained 10^5-node churn. The +4 headroom is the
	// hysteresis: a node oscillating at the class boundary needs 4 adds
	// to re-grow and 4 removes to re-shrink, so boundary traffic can't
	// thrash the free lists (plain shrink-on-remove measured that way).
	// Runs at or below bigRun are left alone, as before.
	if v.cap > sh.bigRun {
		if newCap := sh.runCap(v.n + 4); newCap < v.cap {
			newOff, got := sh.arena.alloc(newCap)
			copy(sh.arena.buf[newOff:newOff+v.n], sh.arena.buf[v.off:v.off+v.n])
			sh.arena.release(v.off, v.cap)
			v.off, v.cap = newOff, got
		}
	}
}

// setReset replaces the run with vs, which must be sorted ascending.
func (sh *shard) setReset(col []vset, i int32, vs []Vertex) {
	sh.maybeCompact()
	v := &col[i]
	newCap := sh.runCap(int32(len(vs)))
	if v.cap < newCap {
		sh.arena.release(v.off, v.cap)
		v.off, v.cap = sh.arena.alloc(newCap)
	}
	v.n = int32(len(vs))
	copy(sh.arena.buf[v.off:v.off+v.n], vs)
}

// mapState is the historical map-keyed representation, preserved as
// the differential oracle for the dense columns.
type mapState struct {
	sim       map[NodeID]map[Vertex]struct{}
	load      map[NodeID]int
	nodePos   map[NodeID]int
	dirty     map[NodeID]struct{}
	newSim    map[NodeID]map[Vertex]struct{}
	effNew    map[NodeID]int
	unprocOld map[NodeID]int
}

// state is the store façade the engine talks to. Exactly one backend
// is active: dense columns (m == nil) or the map oracle (m != nil).
type state struct {
	g      *graph.Graph
	shards []*shard

	// nodeList mirrors the live node set in insertion order for O(1)
	// uniform sampling (both backends share it; only the id->position
	// lookup differs).
	nodeList []NodeID

	dirtyGen  uint32
	dirtyList []NodeID

	bigRun int32 // heavy-node run class handed to new shards

	m *mapState
}

// init binds the store to the engine's live overlay graph. The dense
// backend registers slot hooks so its columns grow, reset, and recycle
// in lockstep with the graph's slot table; zeta sizes the heavy-node
// run class (loads are bounded by 4*zeta outside adoption spikes).
func (st *state) init(g *graph.Graph, useMap bool, zeta int) {
	st.g = g
	st.bigRun = (int32(4*zeta) + 7) &^ 7
	if st.bigRun < 16 {
		st.bigRun = 16
	}
	if useMap {
		st.m = &mapState{
			sim:     make(map[NodeID]map[Vertex]struct{}),
			load:    make(map[NodeID]int),
			nodePos: make(map[NodeID]int),
			dirty:   make(map[NodeID]struct{}),
		}
		return
	}
	st.dirtyGen = 1
	g.SetSlotHooks(st.slotAssigned, st.slotReleased)
}

func (st *state) dense() bool { return st.m == nil }

func (st *state) shardOf(s int32) (*shard, int32) {
	return st.shards[s>>shardBits], s & shardMask
}

// slotAssigned (graph hook) makes the slot's columns exist and zero.
// It fires for slot reuse too, which is what keeps generation stamps
// from leaking a dead node's dirty membership to its successor.
func (st *state) slotAssigned(_ NodeID, s int32) {
	idx := int(s >> shardBits)
	for idx >= len(st.shards) {
		st.shards = append(st.shards, nil)
	}
	sh := st.shards[idx]
	if sh == nil {
		sh = newShard(st.bigRun)
		st.shards[idx] = sh
	}
	i := s & shardMask
	sh.load[i] = 0
	sh.pos[i] = -1
	sh.dirtyAt[i] = 0
	sh.sim[i], sh.nxt[i] = vset{}, vset{}
	sh.effNew[i], sh.unprocOld[i] = 0, 0
}

// slotReleased (graph hook) recycles the slot's vertex runs and zeroes
// its columns the moment the graph frees the slot.
func (st *state) slotReleased(_ NodeID, s int32) {
	sh, i := st.shardOf(s)
	sh.arena.release(sh.sim[i].off, sh.sim[i].cap)
	sh.arena.release(sh.nxt[i].off, sh.nxt[i].cap)
	sh.sim[i], sh.nxt[i] = vset{}, vset{}
	sh.load[i] = 0
	sh.pos[i] = -1
	sh.dirtyAt[i] = 0
	sh.effNew[i], sh.unprocOld[i] = 0, 0
}

// --- node lifecycle ---------------------------------------------------------

// size returns the live node count.
func (st *state) size() int { return len(st.nodeList) }

// has reports whether u is a live engine node.
func (st *state) has(u NodeID) bool {
	if m := st.m; m != nil {
		_, ok := m.sim[u]
		return ok
	}
	_, ok := st.g.SlotOf(u)
	return ok
}

// addNode registers a fresh node: graph slot (dense columns via the
// hook), empty Sim set, sampling-mirror entry. The load stays 0 until
// the caller's setLoad.
func (st *state) addNode(u NodeID) {
	st.g.AddNode(u)
	if m := st.m; m != nil {
		m.sim[u] = make(map[Vertex]struct{})
		m.nodePos[u] = len(st.nodeList)
	} else {
		s, _ := st.g.SlotOf(u)
		sh, i := st.shardOf(s)
		sh.pos[i] = int32(len(st.nodeList))
	}
	st.nodeList = append(st.nodeList, u)
}

// removeNode drops u's engine state and its graph node (the slot hook
// recycles the dense columns). The caller has already moved every
// vertex away and settled the load counters.
func (st *state) removeNode(u NodeID) {
	st.mirrorRemove(u)
	if m := st.m; m != nil {
		delete(m.sim, u)
		delete(m.load, u)
		if m.newSim != nil {
			delete(m.newSim, u)
			delete(m.effNew, u)
			delete(m.unprocOld, u)
		}
	}
	st.g.RemoveNode(u)
}

func (st *state) mirrorRemove(u NodeID) {
	var i int32
	if m := st.m; m != nil {
		p, ok := m.nodePos[u]
		if !ok {
			return
		}
		i = int32(p)
		delete(m.nodePos, u)
	} else {
		s, ok := st.g.SlotOf(u)
		if !ok {
			return
		}
		sh, si := st.shardOf(s)
		i = sh.pos[si]
		if i < 0 {
			return
		}
		sh.pos[si] = -1
	}
	last := len(st.nodeList) - 1
	moved := st.nodeList[last]
	st.nodeList[i] = moved
	st.nodeList = st.nodeList[:last]
	if int(i) == last {
		return
	}
	if m := st.m; m != nil {
		m.nodePos[moved] = int(i)
	} else {
		s, _ := st.g.SlotOf(moved)
		sh, si := st.shardOf(s)
		sh.pos[si] = i
	}
}

// restoreMirror rebuilds the sampling mirror from a serialized node
// list, preserving its insertion/swap order exactly (SampleNode's draws
// depend on it). Dense backend only; the graph slots must already exist
// (DecodeBinary fired the assign hooks).
func (st *state) restoreMirror(list []NodeID) error {
	if st.m != nil {
		return fmt.Errorf("store: restoreMirror requires the dense backend")
	}
	st.nodeList = append(st.nodeList[:0], list...)
	for i, u := range list {
		s, ok := st.g.SlotOf(u)
		if !ok {
			return fmt.Errorf("store: mirror node %d has no graph slot", u)
		}
		sh, si := st.shardOf(s)
		if sh.pos[si] >= 0 {
			return fmt.Errorf("store: mirror node %d listed twice", u)
		}
		sh.pos[si] = int32(i)
	}
	return nil
}

// mirrorPos returns u's sampling-mirror position, for audits.
func (st *state) mirrorPos(u NodeID) (int, bool) {
	if m := st.m; m != nil {
		p, ok := m.nodePos[u]
		return p, ok
	}
	s, ok := st.g.SlotOf(u)
	if !ok {
		return 0, false
	}
	sh, i := st.shardOf(s)
	if sh.pos[i] < 0 {
		return 0, false
	}
	return int(sh.pos[i]), true
}

// --- load -------------------------------------------------------------------

// loadOf returns u's total load (0 for absent nodes).
func (st *state) loadOf(u NodeID) int {
	if m := st.m; m != nil {
		return m.load[u]
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		return int(sh.load[i])
	}
	return 0
}

// loadAt is loadOf with u's slot already in hand (walk stop predicates
// receive (id, slot) pairs straight from the arena's run cells, so the
// dense branch costs one shard index and zero map probes). s must be u's
// live slot; the oracle branch keys by id and ignores it.
func (st *state) loadAt(u NodeID, s int32) int {
	if m := st.m; m != nil {
		return m.load[u]
	}
	sh, i := st.shardOf(s)
	return int(sh.load[i])
}

// putLoadDirty writes u's load and marks u dirty in one slot
// resolution (the caller has decided the write is a real change).
func (st *state) putLoadDirty(u NodeID, l int) {
	if m := st.m; m != nil {
		m.load[u] = l
		st.markDirtyMap(u)
		return
	}
	s, ok := st.g.SlotOf(u)
	if !ok {
		return
	}
	sh, i := st.shardOf(s)
	sh.load[i] = int32(l)
	st.markDirtySlot(sh, i, u)
}

// putLoadDirtyAt is putLoadDirty with u's live slot already in hand (the
// steady-state vertex-move path resolves each endpoint's slot once and
// reuses it for the whole edge/load/set batch). The oracle branch keys
// by id and ignores s.
//
//dexvet:noalloc
func (st *state) putLoadDirtyAt(u NodeID, s int32, l int) {
	if m := st.m; m != nil {
		m.load[u] = l
		st.markDirtyMap(u)
		return
	}
	sh, i := st.shardOf(s)
	sh.load[i] = int32(l)
	st.markDirtySlot(sh, i, u)
}

// clearLoad drops u's load entry (node deletion; counters already
// settled by the caller).
func (st *state) clearLoad(u NodeID) {
	if m := st.m; m != nil {
		delete(m.load, u)
		return
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		sh.load[i] = 0
	}
}

// --- dirty set --------------------------------------------------------------

// markDirty records that u's real-edge row or load changed this step.
// Nodes already deleted are skipped — no audit can observe them.
func (st *state) markDirty(u NodeID) {
	if st.m != nil {
		st.markDirtyMap(u)
		return
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		st.markDirtySlot(sh, i, u)
	}
}

// markDirtyAt is markDirty with u's live slot already in hand (the
// slot-native edge mutators hand it down, skipping the map probe).
func (st *state) markDirtyAt(u NodeID, s int32) {
	if st.m != nil {
		st.markDirtyMap(u)
		return
	}
	sh, i := st.shardOf(s)
	st.markDirtySlot(sh, i, u)
}

func (st *state) markDirtyMap(u NodeID) { st.m.dirty[u] = struct{}{} }

func (st *state) markDirtySlot(sh *shard, i int32, u NodeID) {
	if sh.dirtyAt[i] != st.dirtyGen {
		sh.dirtyAt[i] = st.dirtyGen
		st.dirtyList = append(st.dirtyList, u)
	}
}

// resetDirty empties the dirty set: a generation bump for the dense
// columns, the PR 4 overgrown-map reset for the oracle.
func (st *state) resetDirty() {
	if m := st.m; m != nil {
		m.dirty = resetScratchMap(m.dirty)
		return
	}
	st.dirtyList = st.dirtyList[:0]
	st.dirtyGen++
	if st.dirtyGen == 0 { // wrapped: stale stamps could alias, wipe them
		for _, sh := range st.shards {
			if sh != nil {
				clear(sh.dirtyAt)
			}
		}
		st.dirtyGen = 1
	}
}

// dirtyCount returns the number of dirty marks this step (the dense
// list may retain ids deleted later in the step; audits skip them).
func (st *state) dirtyCount() int {
	if m := st.m; m != nil {
		return len(m.dirty)
	}
	return len(st.dirtyList)
}

// forEachDirty visits the step's dirty nodes until f returns false.
// Visit order is unspecified (map order on the oracle backend) and
// part of the contract: callers aggregate or audit per node.
//
//dexvet:allow determinism oracle backend only; visit order is documented as unspecified and every caller is a per-node aggregate or audit
func (st *state) forEachDirty(f func(u NodeID) bool) {
	if m := st.m; m != nil {
		for u := range m.dirty {
			if !f(u) {
				return
			}
		}
		return
	}
	for _, u := range st.dirtyList {
		if !f(u) {
			return
		}
	}
}

// --- vertex sets: Sim(u) current-cycle, NewSim(u) next-cycle ----------------
//
// One implementation serves both families: nxt selects the dense column
// (shard.sim vs shard.nxt) and the oracle table (mapState.sim vs
// mapState.newSim), so a fix in one family cannot silently miss its
// twin. The public simX/newX wrappers keep call sites readable.

// sets returns the selected oracle table; entries may be written
// through the returned reference (newSim exists only while a rebuild
// is staggered).
func (m *mapState) sets(nxt bool) map[NodeID]map[Vertex]struct{} {
	if nxt {
		return m.newSim
	}
	return m.sim
}

// col returns the selected dense column.
func (sh *shard) col(nxt bool) []vset {
	if nxt {
		return sh.nxt
	}
	return sh.sim
}

func (st *state) setLen(u NodeID, nxt bool) int {
	if m := st.m; m != nil {
		return len(m.sets(nxt)[u])
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		return int(sh.col(nxt)[i].n)
	}
	return 0
}

// setLenAt is setLen with u's slot already resolved (see loadAt).
func (st *state) setLenAt(u NodeID, s int32, nxt bool) int {
	if m := st.m; m != nil {
		return len(m.sets(nxt)[u])
	}
	sh, i := st.shardOf(s)
	return int(sh.col(nxt)[i].n)
}

func (st *state) setAdd(u NodeID, x Vertex, nxt bool) {
	if m := st.m; m != nil {
		tbl := m.sets(nxt)
		set := tbl[u]
		if set == nil {
			set = make(map[Vertex]struct{})
			tbl[u] = set
		}
		set[x] = struct{}{}
		return
	}
	s, _ := st.g.SlotOf(u)
	sh, i := st.shardOf(s)
	sh.setAdd(sh.col(nxt), i, x)
}

func (st *state) setRemove(u NodeID, x Vertex, nxt bool) {
	if m := st.m; m != nil {
		delete(m.sets(nxt)[u], x)
		return
	}
	s, _ := st.g.SlotOf(u)
	sh, i := st.shardOf(s)
	sh.setRemove(sh.col(nxt), i, x)
}

// setAddAt / setRemoveAt / setMaxAt: slot-native forms for callers that
// already hold u's live slot (see loadAt). The oracle branch keys by id.
//
//dexvet:noalloc
func (st *state) setAddAt(u NodeID, s int32, x Vertex, nxt bool) {
	if m := st.m; m != nil {
		st.setAdd(u, x, nxt)
		return
	}
	sh, i := st.shardOf(s)
	sh.setAdd(sh.col(nxt), i, x)
}

//dexvet:noalloc
func (st *state) setRemoveAt(u NodeID, s int32, x Vertex, nxt bool) {
	if m := st.m; m != nil {
		delete(m.sets(nxt)[u], x)
		return
	}
	sh, i := st.shardOf(s)
	sh.setRemove(sh.col(nxt), i, x)
}

//dexvet:noalloc
func (st *state) setMaxAt(u NodeID, s int32, nxt bool) Vertex {
	if m := st.m; m != nil {
		return st.setMax(u, nxt)
	}
	sh, i := st.shardOf(s)
	if r := sh.run(sh.col(nxt), i); len(r) > 0 {
		return r[len(r)-1]
	}
	return -1
}

func (st *state) setHas(u NodeID, x Vertex, nxt bool) bool {
	if m := st.m; m != nil {
		_, ok := m.sets(nxt)[u][x]
		return ok
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		for _, y := range sh.run(sh.col(nxt), i) {
			if y == x {
				return true
			}
			if y > x {
				break
			}
		}
	}
	return false
}

// setMin returns u's smallest vertex in the selected set, or -1.
func (st *state) setMin(u NodeID, nxt bool) Vertex {
	if m := st.m; m != nil {
		best := Vertex(-1)
		for x := range m.sets(nxt)[u] {
			if best < 0 || x < best {
				best = x
			}
		}
		return best
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		if r := sh.run(sh.col(nxt), i); len(r) > 0 {
			return r[0]
		}
	}
	return -1
}

// setMax returns u's largest vertex in the selected set, or -1.
func (st *state) setMax(u NodeID, nxt bool) Vertex {
	if m := st.m; m != nil {
		best := Vertex(-1)
		for x := range m.sets(nxt)[u] {
			if x > best {
				best = x
			}
		}
		return best
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		if r := sh.run(sh.col(nxt), i); len(r) > 0 {
			return r[len(r)-1]
		}
	}
	return -1
}

// setForEach visits the selected set until f returns false (ascending
// for the dense backend, unordered for the oracle — every caller is
// order-independent).
//
//dexvet:allow determinism oracle backend only; the dense backend visits ascending and callers are documented order-independent, which the differential oracle itself verifies
func (st *state) setForEach(u NodeID, nxt bool, f func(x Vertex) bool) {
	if m := st.m; m != nil {
		for x := range m.sets(nxt)[u] {
			if !f(x) {
				return
			}
		}
		return
	}
	s, ok := st.g.SlotOf(u)
	if !ok {
		return
	}
	sh, i := st.shardOf(s)
	for _, x := range sh.run(sh.col(nxt), i) {
		if !f(x) {
			return
		}
	}
}

// setAppend appends the selected set to buf in ascending order.
func (st *state) setAppend(u NodeID, nxt bool, buf []Vertex) []Vertex {
	if m := st.m; m != nil {
		n := len(buf)
		for x := range m.sets(nxt)[u] {
			buf = append(buf, x)
		}
		sortVertices(buf[n:])
		return buf
	}
	s, ok := st.g.SlotOf(u)
	if !ok {
		return buf
	}
	sh, i := st.shardOf(s)
	return append(buf, sh.run(sh.col(nxt), i)...)
}

// Sim(u) — the current-cycle vertex set.
func (st *state) simLen(u NodeID) int                      { return st.setLen(u, false) }
func (st *state) simAdd(u NodeID, x Vertex)                { st.setAdd(u, x, false) }
func (st *state) simRemove(u NodeID, x Vertex)             { st.setRemove(u, x, false) }
func (st *state) simHas(u NodeID, x Vertex) bool           { return st.setHas(u, x, false) }
func (st *state) simMin(u NodeID) Vertex                   { return st.setMin(u, false) }
func (st *state) simMax(u NodeID) Vertex                   { return st.setMax(u, false) }
func (st *state) simForEach(u NodeID, f func(Vertex) bool) { st.setForEach(u, false, f) }
func (st *state) simAddAt(u NodeID, s int32, x Vertex)     { st.setAddAt(u, s, x, false) }
func (st *state) simRemoveAt(u NodeID, s int32, x Vertex)  { st.setRemoveAt(u, s, x, false) }
func (st *state) simMaxAt(u NodeID, s int32) Vertex        { return st.setMaxAt(u, s, false) }
func (st *state) simAppend(u NodeID, buf []Vertex) []Vertex {
	return st.setAppend(u, false, buf)
}

// NewSim(u) — the next-cycle vertex set while a rebuild is staggered.
func (st *state) newLen(u NodeID) int                      { return st.setLen(u, true) }
func (st *state) newLenAt(u NodeID, s int32) int           { return st.setLenAt(u, s, true) }
func (st *state) newAdd(u NodeID, y Vertex)                { st.setAdd(u, y, true) }
func (st *state) newRemove(u NodeID, y Vertex)             { st.setRemove(u, y, true) }
func (st *state) newHas(u NodeID, y Vertex) bool           { return st.setHas(u, y, true) }
func (st *state) newMin(u NodeID) Vertex                   { return st.setMin(u, true) }
func (st *state) newMax(u NodeID) Vertex                   { return st.setMax(u, true) }
func (st *state) newForEach(u NodeID, f func(Vertex) bool) { st.setForEach(u, true, f) }
func (st *state) newAppend(u NodeID, buf []Vertex) []Vertex {
	return st.setAppend(u, true, buf)
}

// simReset replaces u's current-cycle set with vs (one-step rebuild
// commit). vs is sorted in place; the caller's provisional assignment
// is dead after the commit.
func (st *state) simReset(u NodeID, vs []Vertex) {
	if m := st.m; m != nil {
		set := make(map[Vertex]struct{}, len(vs))
		for _, x := range vs {
			set[x] = struct{}{}
		}
		m.sim[u] = set
		return
	}
	sortVertices(vs)
	s, _ := st.g.SlotOf(u)
	sh, i := st.shardOf(s)
	sh.setReset(sh.sim, i, vs)
}

// --- staggering counters ----------------------------------------------------

// stagReset prepares the per-node staggering state for a fresh rebuild
// (the dense columns are already zero between rebuilds).
func (st *state) stagReset() {
	if m := st.m; m != nil {
		m.newSim = make(map[NodeID]map[Vertex]struct{}, st.size())
		m.effNew = make(map[NodeID]int, st.size())
		m.unprocOld = make(map[NodeID]int, st.size())
	}
}

// stagDone drops the rebuild's per-node state after the commit has
// promoted every node.
func (st *state) stagDone() {
	if m := st.m; m != nil {
		m.newSim, m.effNew, m.unprocOld = nil, nil, nil
	}
}

// promoteNew installs u's new-cycle set as its current set (staggered
// rebuild commit) and zeroes u's staggering counters.
func (st *state) promoteNew(u NodeID) {
	if m := st.m; m != nil {
		set := m.newSim[u]
		if set == nil {
			set = make(map[Vertex]struct{})
		}
		m.sim[u] = set
		return
	}
	s, _ := st.g.SlotOf(u)
	sh, i := st.shardOf(s)
	sh.arena.release(sh.sim[i].off, sh.sim[i].cap)
	sh.sim[i] = sh.nxt[i]
	sh.nxt[i] = vset{}
	sh.effNew[i], sh.unprocOld[i] = 0, 0
}

func (st *state) effNewOf(u NodeID) int {
	if m := st.m; m != nil {
		return m.effNew[u]
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		return int(sh.effNew[i])
	}
	return 0
}

// effNewAt is effNewOf with u's slot already resolved (see loadAt).
func (st *state) effNewAt(u NodeID, s int32) int {
	if m := st.m; m != nil {
		return m.effNew[u]
	}
	sh, i := st.shardOf(s)
	return int(sh.effNew[i])
}

func (st *state) addEffNew(u NodeID, d int) {
	if m := st.m; m != nil {
		m.effNew[u] += d
		return
	}
	s, _ := st.g.SlotOf(u)
	sh, i := st.shardOf(s)
	sh.effNew[i] += int32(d)
}

func (st *state) unprocOldOf(u NodeID) int {
	if m := st.m; m != nil {
		return m.unprocOld[u]
	}
	if s, ok := st.g.SlotOf(u); ok {
		sh, i := st.shardOf(s)
		return int(sh.unprocOld[i])
	}
	return 0
}

// unprocOldAt is unprocOldOf with u's slot already resolved (see loadAt).
func (st *state) unprocOldAt(u NodeID, s int32) int {
	if m := st.m; m != nil {
		return m.unprocOld[u]
	}
	sh, i := st.shardOf(s)
	return int(sh.unprocOld[i])
}

func (st *state) addUnprocOld(u NodeID, d int) {
	if m := st.m; m != nil {
		m.unprocOld[u] += d
		return
	}
	s, _ := st.g.SlotOf(u)
	sh, i := st.shardOf(s)
	sh.unprocOld[i] += int32(d)
}

// --- scratch-buffer API -----------------------------------------------------

// scratchMapResetCap is the live-entry count past which a per-step
// scratch map is reallocated instead of cleared. clear() on a Go map
// costs its table capacity, not its live count, and the capacity never
// shrinks — after one type-2 rebuild floods a scratch map with O(n)
// entries, every later step would pay an O(n) memclr to wipe a handful
// (at 10^5 nodes that memclr once dominated the churn profile). The
// dense store's own scratch state (dirty list and stamps) resets by
// generation bump and never needs this; the helper remains for the
// map-keyed scratch that survives it — the edge-delta batch, keyed by
// node pair, and the oracle backend's step maps.
const scratchMapResetCap = 1024

// resetScratchMap empties a per-step scratch map without inheriting a
// spike's table capacity (see scratchMapResetCap).
func resetScratchMap[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > scratchMapResetCap {
		return make(map[K]V, 64)
	}
	clear(m)
	return m
}

// --- test/oracle snapshots --------------------------------------------------

// loadSnapshot materializes the load table (test comparisons only).
func (st *state) loadSnapshot() map[NodeID]int {
	out := make(map[NodeID]int, st.size())
	for _, u := range st.nodeList {
		out[u] = st.loadOf(u)
	}
	return out
}

// simSnapshot materializes every Sim set (test comparisons only).
func (st *state) simSnapshot() map[NodeID][]Vertex {
	out := make(map[NodeID][]Vertex, st.size())
	for _, u := range st.nodeList {
		out[u] = st.simAppend(u, nil)
	}
	return out
}

// checkCoherence verifies the store's internal bookkeeping: mirror
// sizes, backend table sizes, and (dense) slot-table agreement. Used
// by audits in place of the historical map-length cross-checks.
func (st *state) checkCoherence() error {
	if m := st.m; m != nil {
		if len(m.load) != len(m.sim) {
			return fmt.Errorf("store: load table size %d != node count %d", len(m.load), len(m.sim))
		}
		if len(m.nodePos) != len(st.nodeList) {
			return fmt.Errorf("store: mirror index size %d != mirror %d", len(m.nodePos), len(st.nodeList))
		}
		if len(m.sim) != len(st.nodeList) {
			return fmt.Errorf("store: node count %d != mirror %d", len(m.sim), len(st.nodeList))
		}
		return nil
	}
	if st.g.NumNodes() != len(st.nodeList) {
		return fmt.Errorf("store: slot table holds %d nodes, mirror %d", st.g.NumNodes(), len(st.nodeList))
	}
	return nil
}
