package core

import (
	"fmt"

	"repro/internal/graph"
)

// This file is the engine's per-node state store. Every piece of
// per-node bookkeeping the recovery algorithms read or write — the load
// table, the Sim(u) vertex sets, the dirty-node set, the O(1) sampling
// mirror, and the per-node staggering state (NewSim(u), effNew,
// unprocOld) — lives here, in slot-indexed columns layered on the
// overlay graph's own slot table (graph.SlotOf / NodeAt /
// SetSlotHooks): state is addressed by the node's dense slot, not by
// hashing its id. Columns are sharded along contiguous slot ranges of
// 1024 slots, so growth allocates a fixed-size block without moving any
// existing column (per-slot state is pointer stable for the node's
// lifetime), and walk stop predicates read per-shard arrays without
// touching any engine-level map. Vertex sets are small sorted runs
// inside a shard-local arena that recycles through multiple-of-4
// size-class free lists — the same discipline as the graph arena — so
// steady-state churn allocates nothing and a rebuild's transient
// 8*zeta-sized sets return their cells to the shard when it commits.
// The dirty set is a generation stamp plus an append list: resetting it
// is a counter bump.
//
// Every store operation has one slot-keyed body (the *At forms); the
// id-keyed forms resolve the node's slot once and delegate. The
// reference for all of it is storeModel in store_model_test.go, a
// map-keyed model that FuzzStoreOps and TestStoreMatchesModel compare
// every observable against after every operation.

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

// zero resets slot i's columns to those of a node with no state.
func (sh *shard) zero(i int32) {
	sh.load[i], sh.pos[i], sh.dirtyAt[i] = 0, -1, 0
	sh.sim[i], sh.nxt[i] = vset{}, vset{}
	sh.effNew[i], sh.unprocOld[i] = 0, 0
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

// state is the store façade the engine talks to.
type state struct {
	g      *graph.Graph
	shards []*shard

	// nodeList mirrors the live node set in insertion order for O(1)
	// uniform sampling; shard.pos is each node's position in it.
	nodeList []NodeID

	// dirtyList holds the nodes marked since the last resetDirty (it may
	// retain ids deleted later in the step; audits skip them).
	dirtyGen  uint32
	dirtyList []NodeID

	bigRun int32 // heavy-node run class handed to new shards
}

// init binds the store to the engine's live overlay graph and registers
// the slot hooks that grow, reset, and recycle its columns in lockstep
// with the graph's slot table; zeta sizes the heavy-node run class
// (loads are bounded by 4*zeta outside adoption spikes).
func (st *state) init(g *graph.Graph, zeta int) {
	st.g = g
	st.bigRun = max((int32(4*zeta)+7)&^7, 16)
	st.dirtyGen = 1
	g.SetSlotHooks(st.slotAssigned, st.slotReleased)
}

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
	if st.shards[idx] == nil {
		st.shards[idx] = newShard(st.bigRun)
	}
	st.shards[idx].zero(s & shardMask)
}

// slotReleased (graph hook) recycles the slot's vertex runs and zeroes
// its columns the moment the graph frees the slot.
func (st *state) slotReleased(_ NodeID, s int32) {
	sh, i := st.shardOf(s)
	sh.arena.release(sh.sim[i].off, sh.sim[i].cap)
	sh.arena.release(sh.nxt[i].off, sh.nxt[i].cap)
	sh.zero(i)
}

// --- node lifecycle ---------------------------------------------------------

// size returns the live node count.
func (st *state) size() int { return len(st.nodeList) }

// has reports whether u is a live engine node.
func (st *state) has(u NodeID) bool {
	_, ok := st.g.SlotOf(u)
	return ok
}

// slot resolves live node u's slot: the one id->slot probe in front of
// every id-keyed accessor below.
func (st *state) slot(u NodeID) int32 {
	s, ok := st.g.SlotOf(u)
	if !ok {
		panic(fmt.Sprintf("core: node %d has no slot", u))
	}
	return s
}

// addNode registers a fresh node: graph slot (zeroed columns via the
// hook) and sampling-mirror entry. The load stays 0 until the caller's
// setLoadAt.
func (st *state) addNode(u NodeID) {
	st.g.AddNode(u)
	sh, i := st.shardOf(st.slot(u))
	sh.pos[i] = int32(len(st.nodeList))
	st.nodeList = append(st.nodeList, u)
}

// removeNode drops u from the sampling mirror and removes its graph
// node (the slot hook recycles the columns). The caller has already
// moved every vertex away and settled the load counters.
func (st *state) removeNode(u NodeID) {
	sh, i := st.shardOf(st.slot(u))
	p, last := sh.pos[i], len(st.nodeList)-1
	moved := st.nodeList[last]
	st.nodeList[p] = moved
	st.nodeList = st.nodeList[:last]
	if int(p) != last {
		msh, mi := st.shardOf(st.slot(moved))
		msh.pos[mi] = p
	}
	st.g.RemoveNode(u)
}

// restoreMirror rebuilds the sampling mirror from a serialized node
// list, preserving its insertion/swap order exactly (SampleNode's draws
// depend on it). The graph slots must already exist (DecodeBinary fired
// the assign hooks).
func (st *state) restoreMirror(list []NodeID) error {
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

// mirrorPosAt returns the sampling-mirror position of the node at slot
// s (-1 when it is missing from the mirror), for audits.
func (st *state) mirrorPosAt(s int32) int {
	sh, i := st.shardOf(s)
	return int(sh.pos[i])
}

// checkCoherence verifies that the slot table and the sampling mirror
// hold the same number of nodes (audits check each node's position).
func (st *state) checkCoherence() error {
	if st.g.NumNodes() != len(st.nodeList) {
		return fmt.Errorf("store: slot table holds %d nodes, mirror %d", st.g.NumNodes(), len(st.nodeList))
	}
	return nil
}

// --- load -------------------------------------------------------------------

// loadOf returns u's total load (0 for absent nodes).
func (st *state) loadOf(u NodeID) int {
	if s, ok := st.g.SlotOf(u); ok {
		return st.loadAt(s)
	}
	return 0
}

// loadAt returns the load of the node at live slot s. Walk stop
// predicates receive (id, slot) pairs straight from the arena's run
// cells, so the read costs one shard index and zero map probes.
func (st *state) loadAt(s int32) int {
	sh, i := st.shardOf(s)
	return int(sh.load[i])
}

// putLoadDirtyAt writes the load of node u at live slot s and marks u
// dirty (the caller has decided the write is a real change).
//
//dexvet:noalloc
func (st *state) putLoadDirtyAt(u NodeID, s int32, l int) {
	sh, i := st.shardOf(s)
	sh.load[i] = int32(l)
	st.markDirtyAt(u, s)
}

// --- dirty set --------------------------------------------------------------

// markDirty records that u's real-edge row or load changed this step.
// Nodes already deleted are skipped — no audit can observe them.
func (st *state) markDirty(u NodeID) {
	if s, ok := st.g.SlotOf(u); ok {
		st.markDirtyAt(u, s)
	}
}

// markDirtyAt is markDirty with u's live slot s already in hand (the
// slot-native edge mutators hand it down, skipping the map probe).
func (st *state) markDirtyAt(u NodeID, s int32) {
	sh, i := st.shardOf(s)
	if sh.dirtyAt[i] != st.dirtyGen {
		sh.dirtyAt[i] = st.dirtyGen
		st.dirtyList = append(st.dirtyList, u)
	}
}

// resetDirty empties the dirty set by a generation bump.
func (st *state) resetDirty() {
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

// --- vertex sets: Sim(u) current-cycle, NewSim(u) next-cycle ----------------
//
// One implementation serves both families: nxt selects the column
// (shard.sim vs shard.nxt), so a fix in one family cannot silently miss
// its twin.

// col returns the selected column.
func (sh *shard) col(nxt bool) []vset {
	if nxt {
		return sh.nxt
	}
	return sh.sim
}

// setAt returns the selected set of the node at live slot s: a sorted,
// read-only view of its arena run, valid until the next set mutation in
// the slot's shard.
//
//dexvet:noalloc
func (st *state) setAt(s int32, nxt bool) []Vertex {
	sh, i := st.shardOf(s)
	return sh.run(sh.col(nxt), i)
}

// setLenAt is len(setAt(s, nxt)), read from the run header alone.
func (st *state) setLenAt(s int32, nxt bool) int {
	sh, i := st.shardOf(s)
	return int(sh.col(nxt)[i].n)
}

//dexvet:noalloc
func (st *state) setAddAt(s int32, x Vertex, nxt bool) {
	sh, i := st.shardOf(s)
	sh.setAdd(sh.col(nxt), i, x)
}

//dexvet:noalloc
func (st *state) setRemoveAt(s int32, x Vertex, nxt bool) {
	sh, i := st.shardOf(s)
	sh.setRemove(sh.col(nxt), i, x)
}

// Id-keyed forms for callers without the slot in hand.
func (st *state) sim(u NodeID) []Vertex        { return st.setAt(st.slot(u), false) }
func (st *state) newSim(u NodeID) []Vertex     { return st.setAt(st.slot(u), true) }
func (st *state) simLen(u NodeID) int          { return st.setLenAt(st.slot(u), false) }
func (st *state) newLen(u NodeID) int          { return st.setLenAt(st.slot(u), true) }
func (st *state) simAdd(u NodeID, x Vertex)    { st.setAddAt(st.slot(u), x, false) }
func (st *state) simRemove(u NodeID, x Vertex) { st.setRemoveAt(st.slot(u), x, false) }
func (st *state) newAdd(u NodeID, y Vertex)    { st.setAddAt(st.slot(u), y, true) }
func (st *state) newRemove(u NodeID, y Vertex) { st.setRemoveAt(st.slot(u), y, true) }

// setMaxAt returns the largest vertex of the selected set at live slot
// s, which must be non-empty; simMax / newMax are its id-keyed forms.
//
//dexvet:noalloc
func (st *state) setMaxAt(s int32, nxt bool) Vertex {
	r := st.setAt(s, nxt)
	if len(r) == 0 {
		panic("core: largest vertex of an empty set")
	}
	return r[len(r)-1]
}

func (st *state) simMax(u NodeID) Vertex { return st.setMaxAt(st.slot(u), false) }
func (st *state) newMax(u NodeID) Vertex { return st.setMaxAt(st.slot(u), true) }

// simReset replaces u's current-cycle set with vs (one-step rebuild
// commit). vs is sorted in place; the caller's provisional assignment
// is dead after the commit.
func (st *state) simReset(u NodeID, vs []Vertex) {
	sortVertices(vs)
	sh, i := st.shardOf(st.slot(u))
	sh.setReset(sh.sim, i, vs)
}

// promoteNew installs u's new-cycle set as its current set (staggered
// rebuild commit) and zeroes u's staggering counters.
func (st *state) promoteNew(u NodeID) {
	sh, i := st.shardOf(st.slot(u))
	sh.arena.release(sh.sim[i].off, sh.sim[i].cap)
	sh.sim[i] = sh.nxt[i]
	sh.nxt[i] = vset{}
	sh.effNew[i], sh.unprocOld[i] = 0, 0
}

// --- staggering counters ----------------------------------------------------
//
// effNew (generated plus projected new vertices) and unprocOld
// (unprocessed old vertices) of the node at live slot s, then the
// id-keyed forms.

func (st *state) effNewAt(s int32) int {
	sh, i := st.shardOf(s)
	return int(sh.effNew[i])
}

func (st *state) unprocOldAt(s int32) int {
	sh, i := st.shardOf(s)
	return int(sh.unprocOld[i])
}

func (st *state) addEffNewAt(s int32, d int) {
	sh, i := st.shardOf(s)
	sh.effNew[i] += int32(d)
}

func (st *state) addUnprocOldAt(s int32, d int) {
	sh, i := st.shardOf(s)
	sh.unprocOld[i] += int32(d)
}

func (st *state) effNewOf(u NodeID) int        { return st.effNewAt(st.slot(u)) }
func (st *state) unprocOldOf(u NodeID) int     { return st.unprocOldAt(st.slot(u)) }
func (st *state) addEffNew(u NodeID, d int)    { st.addEffNewAt(st.slot(u), d) }
func (st *state) addUnprocOld(u NodeID, d int) { st.addUnprocOldAt(st.slot(u), d) }
