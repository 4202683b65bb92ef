package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// This file is the engine's per-node state store. Every piece of
// per-node bookkeeping the recovery algorithms read or write — the load
// table, the Sim(u) vertex sets, the dirty-node set, the O(1) sampling
// mirror, and the per-node staggering state (NewSim(u), effNew,
// unprocOld) — lives here, in slot-indexed rows layered on the overlay
// graph's own slot table (graph.SlotOf / NodeAt / SetSlotHooks): state
// is addressed by the node's dense slot, not by hashing its id. A
// slot's hot state is one 32-byte row (slotRow) in one flat slice that
// the slot hook grows to cover every slot the graph hands out, so a
// walk stop predicate reads one row per hop, a vertex move or a node
// check reads one line where separate columns cost one per field, and
// nothing touches an engine-level map.
// Vertex sets are small sorted runs inside one vertex arena that
// recycles through multiple-of-4 size-class free lists — the same
// discipline as the graph arena — so steady-state churn allocates
// nothing and a rebuild's transient 8*zeta-sized sets return their
// cells to the arena when it commits. The dirty set is a generation
// stamp plus an append list: resetting it is a counter bump.
//
// Every store operation takes the node's slot: the engine resolves a
// node id once, where it enters (see network.go), and hands the slot
// down. The reference for all of it is storeModel in
// store_model_test.go, a map-keyed model that FuzzStoreOps and
// TestStoreMatchesModel compare every observable against after every
// operation.

// vset references one node's vertex run inside the vertex arena:
// arena.buf[off:off+n] is the set, sorted ascending, with cap cells
// reserved (a multiple of 4).
type vset struct{ off, n, cap int32 }

// vertexArena is the pool for every node's vertex runs, with
// multiple-of-4 size classes recycled through per-class free lists —
// the same scheme the graph arena uses for adjacency runs, scaled down
// to sets bounded by 8*zeta entries.
type vertexArena struct {
	buf       []Vertex
	free      [][]int32 // freed run offsets, indexed by capacity/4
	freeCells int
	bigRun    int32 // heavy-node capacity class, ~4*zeta (see runCap)
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
func (a *vertexArena) runCap(n int32) int32 {
	switch {
	case n == 0:
		return 0
	case n <= 8:
		return 8
	case n <= a.bigRun:
		return a.bigRun
	default:
		return (n + 7) &^ 7
	}
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
	a.extend(o + int(capn))
	return int32(o), capn
}

// extend lengthens buf to want cells, using spare capacity first.
func (a *vertexArena) extend(want int) {
	if cap(a.buf) >= want {
		a.buf = a.buf[:want]
	} else {
		a.buf = append(a.buf, make([]Vertex, want-len(a.buf))...)
	}
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

// resize moves v's run into a fresh run of capn cells (capn >= v.n) and
// releases the old one. A run that grows while it ends the buffer
// extends in place instead: above bigRun the classes step by 8 cells,
// so a set that keeps growing would otherwise copy itself, and carve a
// fresh tail run, every 8 adds, quadratic in its size (FuzzStoreOps'
// bulk-grow-4k input grows one set to 87k vertices).
func (a *vertexArena) resize(v *vset, capn int32) {
	if capn > v.cap && int(v.off+v.cap) == len(a.buf) {
		a.extend(int(v.off + capn))
		v.cap = capn
		return
	}
	newOff, got := a.alloc(capn)
	copy(a.buf[newOff:newOff+v.n], a.buf[v.off:v.off+v.n])
	a.release(v.off, v.cap)
	v.off, v.cap = newOff, got
}

// slotRow is one slot's hot state. Its 32 bytes never straddle a
// 64-byte cache line once misses matter: past 1,024 slots (32 KB) the
// rows slice is a page-aligned allocation, so two rows share each line,
// and a stop predicate, a vertex move or a node check reads all of a
// row with one miss. NewSim run
// headers are not in the row: they are live only while a staggered
// rebuild is in flight, so they keep their own column (newRuns).
type slotRow struct {
	load      int32  // total load incl. staggering new vertices
	pos       int32  // position in the sampling mirror (-1 when absent)
	dirtyAt   uint32 // dirty-set generation stamp
	sim       vset   // Sim(u): current-cycle vertices
	effNew    int32  // generated + projected new vertices (staggering)
	unprocOld int32  // unprocessed old vertices (staggering)
}

// mirrorEntry is one sampling-mirror cell: a live node and its slot, so
// a sample, removeNode's swap and the audit's sample gather reach the
// node's row without an id->slot probe.
type mirrorEntry struct {
	id   NodeID
	slot int32
}

// state is the store façade the engine talks to.
type state struct {
	g *graph.Graph

	// Slot-indexed rows and the NewSim run column. slotAssigned grows
	// both to cover each slot the graph binds and zeroes that slot's
	// row. A slot without a live node holds empty runs (growth adds zero
	// rows and slotReleased clears them), so compaction skips it;
	// nothing reads its other fields.
	rows    []slotRow
	newRuns []vset // NewSim(u): next-cycle vertices while staggering

	arena vertexArena // the runs behind every row's sim and newRuns

	// nodeList mirrors the live node set in insertion order for O(1)
	// uniform sampling; a row's pos is its node's position in it.
	nodeList []mirrorEntry

	// dirtyList holds the nodes marked since the last resetDirty (it may
	// retain ids deleted later in the step; audits skip them).
	dirtyGen  uint32
	dirtyList []NodeID
}

// init binds the store to the engine's live overlay graph and registers
// the slot hooks that grow, reset, and recycle its rows in lockstep
// with the graph's slot table; zeta sizes the heavy-node run class
// (loads are bounded by 4*zeta outside adoption spikes).
func (st *state) init(g *graph.Graph, zeta int) {
	st.g = g
	st.arena.bigRun = max((int32(4*zeta)+7)&^7, 16)
	st.dirtyGen = 1
	g.SetSlotHooks(st.slotAssigned, st.slotReleased)
}

// growCol extends col with zero cells to length n.
func growCol[T any](col []T, n int) []T {
	return append(col, make([]T, n-len(col))...)
}

// slotAssigned (graph hook) makes the slot's row exist and zero. The
// rows grow to cover the whole slot table, not by one: a checkpoint
// decode reads the table before it fires the hook for each live slot,
// so the first hook grows the rows to their decoded size in one step
// and the freed slots the hook skips are covered too. The hook fires
// for slot reuse as well, which is what keeps generation stamps from
// leaking a dead node's dirty membership to its successor.
func (st *state) slotAssigned(_ NodeID, s int32) {
	if n := st.g.Slots(); n > len(st.rows) {
		st.rows = growCol(st.rows, n)
		st.newRuns = growCol(st.newRuns, n)
	}
	st.zero(s)
}

// slotReleased (graph hook) recycles the slot's vertex runs and zeroes
// its row the moment the graph frees the slot, so compaction skips the
// released runs.
func (st *state) slotReleased(_ NodeID, s int32) {
	st.arena.release(st.rows[s].sim.off, st.rows[s].sim.cap)
	st.arena.release(st.newRuns[s].off, st.newRuns[s].cap)
	st.zero(s)
}

// zero resets slot s's row to that of a node with no state.
func (st *state) zero(s int32) {
	st.rows[s] = slotRow{pos: -1}
	st.newRuns[s] = vset{}
}

// maybeCompact repacks the vertex arena when over half its cells sit on
// free lists, mirroring the graph arena's policy: a type-2 rebuild
// transiently doubles every set's size, and after it commits the big
// runs must not pin the pool's high-water mark. The repack walks every
// slot, but it leaves no cell free, so the next one waits until
// releases park half the pool again. Called only at the top of set
// mutations, where no run offset is held across it.
func (st *state) maybeCompact() {
	a := &st.arena
	if len(a.buf) <= 2048 || 2*a.freeCells <= len(a.buf) {
		return
	}
	total := int32(0)
	for s := range st.rows {
		total += st.rows[s].sim.cap + st.newRuns[s].cap
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
	for s := range st.rows {
		repack(&st.rows[s].sim)
		repack(&st.newRuns[s])
	}
	a.buf = newBuf[:off]
	for i := range a.free {
		a.free[i] = a.free[i][:0]
	}
	a.freeCells = 0
}

// --- node lifecycle ---------------------------------------------------------

// size returns the live node count.
func (st *state) size() int { return len(st.nodeList) }

// has reports whether u is a live engine node.
func (st *state) has(u NodeID) bool {
	_, ok := st.g.SlotOf(u)
	return ok
}

// slot resolves live node u's slot: the id->slot probe an id pays once,
// where it enters the engine.
func (st *state) slot(u NodeID) int32 {
	s, ok := st.g.SlotOf(u)
	if !ok {
		panic(fmt.Sprintf("core: node %d has no slot", u))
	}
	return s
}

// addNode registers a fresh node and returns its slot: graph slot
// (zeroed row via the hook) and sampling-mirror entry. The load stays
// 0 until the caller's setLoadAt.
func (st *state) addNode(u NodeID) int32 {
	s := st.g.AddNode(u)
	st.rows[s].pos = int32(len(st.nodeList))
	st.nodeList = append(st.nodeList, mirrorEntry{u, s})
	return s
}

// removeNode drops node u at slot s from the sampling mirror and
// removes its graph node (the slot hook recycles the row). The caller
// has already moved every vertex away and settled the load counters.
// The entry swapped into u's position carries its own slot, so the
// swap probes nothing.
func (st *state) removeNode(u NodeID, s int32) {
	p, last := st.rows[s].pos, len(st.nodeList)-1
	moved := st.nodeList[last]
	st.nodeList[p] = moved
	st.nodeList = st.nodeList[:last]
	if int(p) != last {
		st.rows[moved.slot].pos = p
	}
	st.g.RemoveNode(u)
}

// restoreMirror rebuilds the sampling mirror from a serialized node
// list, preserving its insertion/swap order exactly (SampleNode's draws
// depend on it). The graph slots must already exist (DecodeBinary fired
// the assign hooks).
func (st *state) restoreMirror(list []NodeID) error {
	st.nodeList = st.nodeList[:0]
	for i, u := range list {
		s, ok := st.g.SlotOf(u)
		if !ok {
			return fmt.Errorf("store: mirror node %d has no graph slot", u)
		}
		if st.rows[s].pos >= 0 {
			return fmt.Errorf("store: mirror node %d listed twice", u)
		}
		st.rows[s].pos = int32(i)
		st.nodeList = append(st.nodeList, mirrorEntry{u, s})
	}
	return nil
}

// sample draws a uniformly random sampling-mirror entry from r: one
// r.Intn, whose result SampleNode and the sampled audit both depend on.
func (st *state) sample(r *rand.Rand) mirrorEntry {
	return st.nodeList[r.Intn(len(st.nodeList))]
}

// mirrorPosAt returns the sampling-mirror position of the node at slot
// s (-1 when it is missing from the mirror), for audits.
func (st *state) mirrorPosAt(s int32) int { return int(st.rows[s].pos) }

// mirrorHolds reports whether the sampling mirror lists node u at slot
// s: s is in range and its row's position names exactly the entry
// (u, s). A slot taken from a mirror entry is checked this way instead
// of being re-resolved from u.
//
//dexvet:noalloc
func (st *state) mirrorHolds(u NodeID, s int32) bool {
	if uint(s) >= uint(len(st.rows)) {
		return false
	}
	p := st.rows[s].pos
	return uint(p) < uint(len(st.nodeList)) && st.nodeList[p] == mirrorEntry{u, s}
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
// cells, so the read costs one row index and zero map probes.
func (st *state) loadAt(s int32) int { return int(st.rows[s].load) }

// putLoadDirtyAt writes the load of node u at live slot s and marks u
// dirty (the caller has decided the write is a real change).
//
//dexvet:noalloc
func (st *state) putLoadDirtyAt(u NodeID, s int32, l int) {
	st.rows[s].load = int32(l)
	st.markDirtyAt(u, s)
}

// --- dirty set --------------------------------------------------------------

// markDirtyAt records that the real-edge row or load of node u at live
// slot s changed this step.
func (st *state) markDirtyAt(u NodeID, s int32) {
	if r := &st.rows[s]; r.dirtyAt != st.dirtyGen {
		r.dirtyAt = st.dirtyGen
		st.dirtyList = append(st.dirtyList, u)
	}
}

// resetDirty empties the dirty set by a generation bump.
func (st *state) resetDirty() {
	st.dirtyList = st.dirtyList[:0]
	st.dirtyGen++
	if st.dirtyGen == 0 { // wrapped: stale stamps could alias, wipe them
		for s := range st.rows {
			st.rows[s].dirtyAt = 0
		}
		st.dirtyGen = 1
	}
}

// --- vertex sets: Sim(u) current-cycle, NewSim(u) next-cycle ----------------
//
// One implementation serves both families: nxt selects the run header
// (the row's sim vs the newRuns column), so a fix in one family cannot
// silently miss its twin.

// run returns the selected run header of slot s.
func (st *state) run(s int32, nxt bool) *vset {
	if nxt {
		return &st.newRuns[s]
	}
	return &st.rows[s].sim
}

// setAt returns the selected set of the node at live slot s: a sorted,
// read-only view of its arena run. Any node's set mutation may compact
// or grow the one shared arena, so the view is valid only until the
// next set mutation of any node; callers that mutate sets while
// iterating copy the view first (vertexHoldings) or finish reading it
// before the first mutation.
//
//dexvet:noalloc
func (st *state) setAt(s int32, nxt bool) []Vertex {
	v := st.run(s, nxt)
	return st.arena.buf[v.off : v.off+v.n]
}

// setLenAt is len(setAt(s, nxt)), read from the run header alone.
func (st *state) setLenAt(s int32, nxt bool) int { return int(st.run(s, nxt).n) }

// setAddAt inserts x into the selected sorted run, growing through the
// free lists when full. Duplicate insertion is an engine bug and
// panics.
//
//dexvet:noalloc
func (st *state) setAddAt(s int32, x Vertex, nxt bool) {
	st.maybeCompact()
	a := &st.arena
	v := st.run(s, nxt)
	if v.n == v.cap {
		a.resize(v, a.runCap(v.n+1))
	}
	run := a.buf[v.off : v.off+v.n+1]
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

// setRemoveAt deletes x from the selected run, panicking if absent.
// Runs at or below the bigRun class are deliberately not shrunk: a
// set's steady capacity is bounded by 4*zeta plus growth slack, churn
// then moves vertices with zero arena traffic, and the cases where
// capacity really collapses — rebuild commits and node deaths —
// release the whole run anyway (promoteNew, slotReleased).
// Unconditional shrink-on-remove measured as pure thrash: the
// release/alloc class churn kept pushing the pool over the compaction
// threshold, costing ~8KB/op of amortized copying on steady 10^5-node
// churn. Runs *above* bigRun are the exception — see the snap-back
// below.
//
//dexvet:noalloc
func (st *state) setRemoveAt(s int32, x Vertex, nxt bool) {
	a := &st.arena
	v := st.run(s, nxt)
	run := a.buf[v.off : v.off+v.n]
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
	// once the pool's spare capacity is gone the append reallocates the
	// whole buffer — measured as ~900B/op of amortized heap growth on
	// sustained 10^5-node churn. The +4 headroom is the hysteresis: a
	// node oscillating at the class boundary needs 4 adds to re-grow and
	// 4 removes to re-shrink, so boundary traffic can't thrash the free
	// lists (plain shrink-on-remove measured that way). Runs at or below
	// bigRun are left alone, as before.
	if v.cap > a.bigRun {
		if newCap := a.runCap(v.n + 4); newCap < v.cap {
			a.resize(v, newCap)
		}
	}
}

// setMaxAt returns the largest vertex of the selected set at live slot
// s, which must be non-empty.
//
//dexvet:noalloc
func (st *state) setMaxAt(s int32, nxt bool) Vertex {
	r := st.setAt(s, nxt)
	if len(r) == 0 {
		panic("core: largest vertex of an empty set")
	}
	return r[len(r)-1]
}

// sizeRuns gives the empty selected run of every slot s with n[s] > 0
// the capacity class of n[s] vertices, carving all of them from one
// reservation of the arena. A restore sizes every run this way before
// it adds the vertices in ascending order, so the adds never move a
// run and the arena is not grown run by run.
func (st *state) sizeRuns(n []int32, nxt bool) {
	a := &st.arena
	total := 0
	for _, c := range n {
		total += int(a.runCap(c))
	}
	a.buf = slices.Grow(a.buf, total)
	for s, c := range n {
		if c > 0 {
			v := st.run(int32(s), nxt)
			v.off, v.cap = a.alloc(a.runCap(c))
		}
	}
}

// simReset replaces the current-cycle set of the node at slot s with vs
// (one-step rebuild commit). vs is sorted in place; the caller's
// provisional assignment is dead after the commit.
func (st *state) simReset(s int32, vs []Vertex) {
	slices.Sort(vs)
	st.maybeCompact()
	a := &st.arena
	v := &st.rows[s].sim
	if newCap := a.runCap(int32(len(vs))); v.cap < newCap {
		a.release(v.off, v.cap)
		v.off, v.cap = a.alloc(newCap)
	}
	v.n = int32(len(vs))
	copy(a.buf[v.off:v.off+v.n], vs)
}

// promoteNew installs the new-cycle set of the node at slot s as its
// current set (staggered rebuild commit) and zeroes its staggering
// counters.
func (st *state) promoteNew(s int32) {
	r := &st.rows[s]
	st.arena.release(r.sim.off, r.sim.cap)
	r.sim, st.newRuns[s] = st.newRuns[s], vset{}
	r.effNew, r.unprocOld = 0, 0
}

// --- staggering counters ----------------------------------------------------
//
// effNew (generated plus projected new vertices) and unprocOld
// (unprocessed old vertices) of the node at live slot s.

func (st *state) effNewAt(s int32) int          { return int(st.rows[s].effNew) }
func (st *state) unprocOldAt(s int32) int       { return int(st.rows[s].unprocOld) }
func (st *state) addEffNewAt(s int32, d int)    { st.rows[s].effNew += int32(d) }
func (st *state) addUnprocOldAt(s int32, d int) { st.rows[s].unprocOld += int32(d) }
