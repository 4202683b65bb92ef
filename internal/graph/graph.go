// Package graph provides the undirected-multigraph substrate shared by the
// virtual p-cycle, the real overlay network, and every baseline topology in
// this repository.
//
// Graphs are multigraphs: parallel edges and self-loops are first-class,
// because the DEX real network is a vertex contraction of a 3-regular
// virtual expander and contraction creates exactly those (Section 3.1 of
// the paper). Degrees count edge multiplicity, with a self-loop
// contributing 1, so the random-walk transition matrix D^{-1}A is
// stochastic with the same convention used throughout the spectral
// toolkit.
//
// All iteration orders are deterministic (sorted by node ID) so that
// seeded experiments are exactly reproducible.
//
// # Concurrency
//
// A Graph is not self-synchronizing, but its read paths are pure: no
// accessor (RandomNeighborStep, RunAt, Degree, Multiplicity, BFS, ...)
// writes any field, so any number of goroutines may read one graph
// concurrently as long as no mutator runs. Mutators (AddEdge*,
// RemoveEdge*, AddNode, RemoveNode) require exclusive access — they may
// grow, shrink, or compact the shared pool, so a run RunAt handed out is
// valid only until the next mutation. Readers that cannot exclude
// writers must work from a Snapshot taken while a lock excluded mutators
// (e.g. the dex.Concurrent façade's Snapshot method); Epoch then tells
// such a reader how stale its copy has become.
//
// # Representation
//
// Graph stores adjacency in a flat arena: one shared []RunCell pool holds
// a contiguous, NodeID-sorted neighbor run per node, and a dense slot
// table (NodeID <-> int32 slot) carries each run's offset plus cached
// multigraph and distinct degrees. A cell interleaves the neighbor's id,
// the edge multiplicity, and the neighbor's own slot in 16 bytes, so a
// probe or a walk hop that reads all three touches the lines of one
// contiguous run — not three parallel columns resident on three different
// lines. Runs grow through multiple-of-4 size classes and freed runs
// recycle through per-size free lists, so steady-state churn
// (AddEdge/RemoveEdge at bounded degree) allocates nothing and a node's
// whole neighborhood sits on one or two cache lines. Because every cell
// carries the neighbor's slot, walk hops and neighbor scans hand the
// caller (id, slot) pairs and slot-indexed side tables are reachable
// without an id->slot map probe. RunAt hands out a node's run as a
// read-only alias of the pool, which a range loop scans in place, and
// Pick makes the walk hop on a run (RandomNeighborStepAt and its
// id-keyed wrapper pick on the arena's); neither materializes a slice.
// The previous map-of-maps implementation lives on in the tests as Ref
// (ref_test.go), the oracle that FuzzGraphOps, TestArenaMatchesRef and
// TestScaleGraphMemoryFootprint check this arena against.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. The zero value is a valid ID.
type NodeID int64

// nodeRec is the per-node slot record: the node's neighbor run in the pool
// and its cached degrees, 20 bytes with no padding. Padded to 32 bytes,
// two records to a 64-byte line and none split across two, it measured
// slower on BenchmarkWalkHop (ROADMAP item 4).
type nodeRec struct {
	off  int32 // run start in the pool
	n    int32 // entries in use
	cap  int32 // run capacity (multiple of 4; 0 = no run allocated)
	deg  int32 // multigraph degree: sum of mult (a self-loop counts once)
	dist int32 // distinct neighbors excluding the node itself
}

// RunCell is one adjacency-run entry: the neighbor's id (the node itself
// for its self cell), the multiplicity of the connecting edge, and the
// neighbor's own slot, interleaved in 16 padding-free bytes. The arena
// stores runs of these, RunAt hands one out and BuildRunAt writes one.
// Interleaving is the cache contract of the arena: a membership probe, a
// walk hop, or a run shift reads and moves whole cells, so a degree-d
// neighborhood costs ceil(d/4) line touches — the historical
// parallel-column layout (poolV/poolM/poolS) spread the same 16 bytes per
// neighbor across three lines, and steady-state churn paid all three per
// half-edge.
type RunCell struct {
	V NodeID // neighbor id; runs sort strictly ascending on this
	M int32  // edge multiplicity (> 0 for live cells)
	S int32  // neighbor's slot: pool[i].S == index[pool[i].V]
}

// Graph is a mutable undirected multigraph backed by a flat adjacency
// arena. Neighbor ids, multiplicities, and neighbor slots interleave in
// one []RunCell pool (16 bytes per distinct neighbor, no struct padding);
// capacities are multiples of 4 so run rounding wastes at most 3 cells
// per node.
//
// The slot field is coherent by construction: pool[i].S == index[pool[i].V]
// for every live run cell. A node's edges are all removed before its slot
// is recycled (RemoveNode strips incident edges first), so no run entry
// can ever reference a freed slot and recycling needs no rewrite pass —
// Validate asserts the identity and FuzzGraphOps checks it after every op.
type Graph struct {
	index map[NodeID]int32 // sparse NodeID -> dense slot (authoritative)

	// dense is the id->slot fast path: for every live node u with
	// 0 <= u < len(dense), dense[u] holds u's slot; every other cell in
	// range holds -1. Lookups for in-range ids skip the map entirely —
	// the ids this engine mints are small and contiguous, so steady-state
	// churn resolves both endpoints with two array reads instead of two
	// map probes. Growth is geometric and budgeted at 4*slots+256 cells,
	// so adversarially sparse ids (fuzzed or decoded) simply stay on the
	// map path and can never balloon memory. Validate asserts coherence
	// cell-by-cell.
	dense []int32

	ids       []NodeID  // slot -> NodeID (stale for free slots)
	recs      []nodeRec // slot -> record
	freeSlots []int32   // recycled slots
	pool      []RunCell // neighbor cells, all runs concatenated
	freeRuns  [][]int32 // freed run offsets, indexed by capacity/4
	freeCells int       // total cells parked on the free lists
	edges     int       // number of edges (loops count once)
	epoch     uint64    // logical version: bumped by every effective mutation

	// freeMask is AppendBinary's scratch bitmap of the free slots, kept
	// so that a checkpoint allocates nothing once it has been sized.
	freeMask []uint64

	// Slot lifecycle hooks (SetSlotHooks): onSlotAssign fires right after
	// a slot is bound to a node, onSlotRelease right after a node's slot
	// is freed. They let a caller layer slot-indexed columnar state on
	// the graph's own slot table (the DEX engine's per-node store does).
	// Clone/Snapshot never copy them — a copy belongs to someone else.
	onSlotAssign  func(u NodeID, slot int32)
	onSlotRelease func(u NodeID, slot int32)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[NodeID]int32)}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		index:     make(map[NodeID]int32, len(g.index)),
		dense:     append([]int32(nil), g.dense...),
		ids:       append([]NodeID(nil), g.ids...),
		recs:      append([]nodeRec(nil), g.recs...),
		freeSlots: append([]int32(nil), g.freeSlots...),
		pool:      append([]RunCell(nil), g.pool...),
		freeCells: g.freeCells,
		edges:     g.edges,
		epoch:     g.epoch,
	}
	for u, s := range g.index {
		c.index[u] = s
	}
	c.freeRuns = make([][]int32, len(g.freeRuns))
	for i, fl := range g.freeRuns {
		c.freeRuns[i] = append([]int32(nil), fl...)
	}
	return c
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.index) }

// NumEdges returns the number of edges counting multiplicity; a self-loop
// counts as one edge.
func (g *Graph) NumEdges() int { return g.edges }

// HasNode reports whether u exists.
func (g *Graph) HasNode(u NodeID) bool {
	_, ok := g.lookup(u)
	return ok
}

// AddNode inserts u as an isolated node if not present, and returns
// u's slot.
func (g *Graph) AddNode(u NodeID) int32 {
	if s, ok := g.lookup(u); ok {
		return s
	}
	g.epoch++
	return g.bind(u)
}

// Epoch returns the graph's logical version: a counter incremented by
// every effective mutation (node added or removed, edge multiplicity
// changed) and untouched by no-op calls or internal arena housekeeping.
// It is read and written under the same exclusion regime as the rest
// of the graph (it is not atomic, and the increment happens before the
// mutation's writes — it cannot be used as a lock-free seqlock).
// Compare a Snapshot's pinned epoch against the live graph's, read
// under the owner's lock, to tell whether a mirror has gone stale.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Snapshot returns a deep copy of the graph together with the epoch it
// was taken at. It is the safe way to hand a consistent view of a
// concurrently churned overlay to long-running readers (spectral
// analysis, mirrors, debugging): callers take the snapshot while they
// hold whatever lock excludes mutators, then read it lock-free forever.
func (g *Graph) Snapshot() (*Graph, uint64) { return g.Clone(), g.epoch }

// SlotOf returns u's dense slot index and whether u is present. A slot
// is stable for as long as its node exists: no mutation of other nodes,
// arena growth, or compaction ever moves it. After RemoveNode the slot
// is recycled and may be handed to a different node later, so callers
// holding slots across deletions must revalidate with NodeAt.
func (g *Graph) SlotOf(u NodeID) (int32, bool) {
	return g.lookup(u)
}

// NodeAt returns the node currently occupying slot s, if any. Freed
// slots (and out-of-range indexes) report ok=false.
func (g *Graph) NodeAt(s int32) (NodeID, bool) {
	if s < 0 || int(s) >= len(g.ids) || !g.liveAt(int(s)) {
		return 0, false
	}
	return g.ids[s], true
}

// Slots returns the size of the slot table: every valid slot index is
// < Slots(). The table counts freed slots awaiting reuse, so Slots()
// can exceed NumNodes but never shrinks while nodes churn.
func (g *Graph) Slots() int { return len(g.ids) }

// SetSlotHooks registers slot lifecycle callbacks (nil to clear):
// assign fires immediately after a slot is bound to a node (AddNode, or
// an edge mutation creating an endpoint), release fires immediately
// after a node's slot is freed by RemoveNode (its edges are already
// gone). Callers use them to keep slot-indexed side tables — per-node
// engine state living in dense columns — in lockstep with the graph's
// own slot table. Hooks must not mutate the graph; they survive for the
// graph's lifetime and are deliberately not copied by Clone/Snapshot.
func (g *Graph) SetSlotHooks(assign, release func(u NodeID, slot int32)) {
	g.onSlotAssign = assign
	g.onSlotRelease = release
}

// lookup resolves u's live slot through the dense fast path when u is in
// range (one array read; the unsigned compare folds the negative-id check
// into the bounds check) and through the map otherwise. The in-range
// verdict is exact either way: coherence guarantees every live id below
// len(dense) has its slot there, so a -1 cell means u is absent.
//
//dexvet:noalloc
func (g *Graph) lookup(u NodeID) (int32, bool) {
	if uint64(u) < uint64(len(g.dense)) {
		s := g.dense[u]
		return s, s >= 0
	}
	s, ok := g.index[u]
	return s, ok
}

// denseSet records a fresh id->slot binding in the dense fast path,
// growing it when u is within the memory budget (4*slots+256 cells keeps
// the array proportional to the slot table no matter how adversarial the
// id distribution is). Out-of-budget ids stay map-only, which lookup
// handles by construction.
func (g *Graph) denseSet(u NodeID, s int32) {
	if uint64(u) >= uint64(len(g.dense)) {
		if u < 0 || int64(u) >= int64(4*len(g.ids)+256) {
			return
		}
		g.growDense(int(u) + 1)
	}
	g.dense[u] = s
}

// growDense extends the dense fast path to at least need cells (doubling
// so growth amortizes), backfilling every live binding the new region
// covers — ids that were over budget when first bound become fast-path
// once the graph has grown enough to afford them.
func (g *Graph) growDense(need int) {
	newLen := 2 * len(g.dense)
	if newLen < need {
		newLen = need
	}
	old := len(g.dense)
	g.dense = append(g.dense, make([]int32, newLen-old)...)
	for i := old; i < newLen; i++ {
		g.dense[i] = -1
	}
	for u, s := range g.index {
		if int64(u) >= int64(old) && int64(u) < int64(newLen) {
			g.dense[u] = s
		}
	}
}

// slotOf returns u's dense slot, creating it if needed.
func (g *Graph) slotOf(u NodeID) int32 {
	if s, ok := g.lookup(u); ok {
		return s
	}
	return g.bind(u)
}

// bind gives the absent node u a slot, recycled when one is free.
func (g *Graph) bind(u NodeID) int32 {
	var s int32
	if n := len(g.freeSlots); n > 0 {
		s = g.freeSlots[n-1]
		g.freeSlots = g.freeSlots[:n-1]
		g.ids[s] = u
		g.recs[s] = nodeRec{}
	} else {
		s = int32(len(g.ids))
		g.ids = append(g.ids, u)
		g.recs = append(g.recs, nodeRec{})
	}
	g.index[u] = s
	g.denseSet(u, s)
	if g.onSlotAssign != nil {
		g.onSlotAssign(u, s)
	}
	return s
}

// findNbr searches slot s's run for neighbor v, returning the position
// and whether it was found (the position is the insertion point
// otherwise). Runs are tiny in the regimes this graph serves (a
// contraction's distinct degree is O(zeta)), where a branch-predictable
// linear scan over the sorted cells beats binary search's mispredicted
// halving. Runs longer than 16 cells binary-narrow to a 16-cell segment
// first; the drain then skips 4 cells at a time off the segment's sorted
// tail before the final short scan.
//
// Narrowing invariant (PR 7's boundary-cell bug class): every narrowing
// step — binary and 4-wide skip — keeps run[hi] >= v whenever
// hi < len(run), so the drained scan's fallthrough must still examine
// the boundary cell run[lo].
//
//dexvet:noalloc
func (g *Graph) findNbr(s int32, v NodeID) (int32, bool) {
	r := &g.recs[s]
	run := g.pool[r.off : r.off+r.n]
	lo, hi := 0, len(run)
	for hi-lo > 16 {
		mid := (lo + hi) / 2
		if run[mid].V < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// 4-wide drain: the segment is sorted, so if its 4th cell is still
	// below v the first 4 all are — one comparison retires 4 cells.
	for hi-lo >= 4 && run[lo+3].V < v {
		lo += 4
	}
	for ; lo < hi; lo++ {
		if w := run[lo].V; w >= v {
			return int32(lo), w == v
		}
	}
	// Narrowing keeps run[hi] >= v whenever hi < len(run), so a scan that
	// drains [lo, hi) must still examine the boundary cell.
	return int32(lo), lo < len(run) && run[lo].V == v
}

// growCap returns the next run capacity after capn: multiples of 4, ~1.5x
// geometric so the fixed waste per node stays a few cells while degree
// remains bounded.
func growCap(capn int32) int32 {
	next := (capn + capn/2) &^ 3
	if next < capn+4 {
		next = capn + 4
	}
	return next
}

// allocRun pops a run of capacity capn (a multiple of 4) off the free
// list or carves a fresh one from the pool tail.
func (g *Graph) allocRun(capn int32) int32 {
	class := int(capn / 4)
	if class < len(g.freeRuns) {
		if fl := g.freeRuns[class]; len(fl) > 0 {
			off := fl[len(fl)-1]
			g.freeRuns[class] = fl[:len(fl)-1]
			g.freeCells -= int(capn)
			return off
		}
	}
	off := len(g.pool)
	want := off + int(capn)
	if want > 1<<31-1 {
		// int32 offsets address 2^31 cells (~32GB of adjacency); failing
		// loudly beats two runs silently aliasing after a wrap.
		panic("graph: adjacency pool exceeds the int32 offset domain")
	}
	if cap(g.pool) >= want {
		g.pool = g.pool[:want]
	} else {
		g.pool = append(g.pool, make([]RunCell, capn)...)
	}
	return int32(off)
}

// freeRun returns a run to its capacity-class free list.
func (g *Graph) freeRun(off, capn int32) {
	if capn == 0 {
		return
	}
	class := int(capn / 4)
	for len(g.freeRuns) <= class {
		g.freeRuns = append(g.freeRuns, nil)
	}
	g.freeRuns[class] = append(g.freeRuns[class], off)
	g.freeCells += int(capn)
}

// maybeCompact repacks the arena when more than half its cells sit on
// free lists. Growth and shrink churn strand runs in size classes nothing
// asks for anymore; without compaction the pool's high-water mark — not
// the live degree sum — would set the memory footprint. Called only from
// the top of the public mutators, where no run offset is held across it.
// The guard lives here and the repack in compact so the almost-always-
// false check inlines into every mutator instead of costing a call.
func (g *Graph) maybeCompact() {
	if len(g.pool) <= 4096 || 2*g.freeCells <= len(g.pool) {
		return
	}
	g.compact()
}

// compact is maybeCompact's repack body: runs are rewritten dense, in slot
// order, at snug capacities, and the free lists reset.
func (g *Graph) compact() {
	total := int32(0)
	for s := range g.recs {
		if n := g.recs[s].n; n > 0 {
			total += (n + 3) &^ 3
		}
	}
	// An eighth of slack keeps the first few post-compact growths carving
	// from spare capacity instead of reallocating the array.
	spare := int(total)/8 + 64
	newPool := make([]RunCell, total, int(total)+spare)
	off := int32(0)
	for s := range g.recs {
		r := &g.recs[s]
		if r.n == 0 {
			// Isolated or dead slot: drop any parked run entirely.
			r.off, r.cap = 0, 0
			continue
		}
		newCap := (r.n + 3) &^ 3
		copy(newPool[off:off+r.n], g.pool[r.off:r.off+r.n])
		r.off, r.cap = off, newCap
		off += newCap
	}
	g.pool = newPool
	for i := range g.freeRuns {
		g.freeRuns[i] = g.freeRuns[i][:0]
	}
	g.freeCells = 0
}

// insertEntry inserts neighbor v (slot vs, multiplicity k) at position
// pos of slot s's run, growing the run if full.
func (g *Graph) insertEntry(s int32, pos int32, v NodeID, vs int32, k int32) {
	r := &g.recs[s]
	if r.n == r.cap {
		newCap := int32(4)
		if r.cap > 0 {
			newCap = growCap(r.cap)
		}
		newOff := g.allocRun(newCap)
		copy(g.pool[newOff:newOff+r.n], g.pool[r.off:r.off+r.n])
		g.freeRun(r.off, r.cap)
		r.off, r.cap = newOff, newCap
	}
	lo, hi := r.off, r.off+r.n
	if hi-(lo+pos) <= 16 {
		// Short tails dominate (runs are degree-sized); a hand-rolled
		// shift over the resliced tail beats the memmove call here, and
		// the reslice hoists the pool bounds checks out of the loop.
		pc := g.pool[lo+pos : hi+1]
		for i := len(pc) - 1; i > 0; i-- {
			pc[i] = pc[i-1]
		}
	} else {
		copy(g.pool[lo+pos+1:hi+1], g.pool[lo+pos:hi])
	}
	g.pool[lo+pos] = RunCell{V: v, M: k, S: vs}
	r.n++
	r.deg += k
	if vs != s { // a self cell holds its owner's slot (Validate)
		r.dist++
	}
}

// removeEntry deletes the entry at position pos of slot s's run, shrinking
// the run when it is mostly empty.
func (g *Graph) removeEntry(s int32, pos int32) {
	r := &g.recs[s]
	lo, hi := r.off, r.off+r.n
	if g.pool[lo+pos].S != s { // the self cell holds s (Validate)
		r.dist--
	}
	if hi-(lo+pos) <= 16 {
		pc := g.pool[lo+pos : hi]
		for i := 0; i < len(pc)-1; i++ {
			pc[i] = pc[i+1]
		}
	} else {
		copy(g.pool[lo+pos:hi-1], g.pool[lo+pos+1:hi])
	}
	r.n--
	if r.cap > 4 && r.n*2 <= r.cap {
		g.shrinkRun(s)
	}
}

// shrinkRun moves slot s's run to a snug capacity (live entries plus two
// spare cells, rounded to the class size), releasing the old run to the
// free lists. This is what keeps memory tracking the live degree rather
// than its high-water mark: a staggered type-2 rebuild transiently
// multiplies node degrees, and after it commits the big runs return to
// the shared pool for the next rebuild's cohort to reuse (a per-node map
// can never hand its spare buckets to a neighbor). An add/remove cycle at
// the boundary costs a small copy through the free lists, never an
// allocation.
func (g *Graph) shrinkRun(s int32) {
	r := &g.recs[s]
	newCap := (r.n + 2 + 3) &^ 3
	if newCap < 4 {
		newCap = 4
	}
	if newCap >= r.cap {
		return
	}
	newOff := g.allocRun(newCap)
	copy(g.pool[newOff:newOff+r.n], g.pool[r.off:r.off+r.n])
	g.freeRun(r.off, r.cap)
	r.off, r.cap = newOff, newCap
}

// removeHalf removes k multiplicities of neighbor v from slot s's run; the
// caller guarantees at least k are present.
func (g *Graph) removeHalf(s int32, v NodeID, k int32) {
	pos, ok := g.findNbr(s, v)
	if !ok {
		panic(fmt.Sprintf("graph: removeHalf of absent neighbor %d", v))
	}
	r := &g.recs[s]
	g.pool[r.off+pos].M -= k
	r.deg -= k
	if g.pool[r.off+pos].M == 0 {
		g.removeEntry(s, pos)
	}
}

// AddEdge adds one undirected edge {u,v}, creating the endpoints if needed.
// Adding an existing edge increases its multiplicity.
func (g *Graph) AddEdge(u, v NodeID) { g.AddEdgeMult(u, v, 1) }

// AddEdgeMult adds k parallel {u,v} edges in one step, creating the
// endpoints if needed. Quotient uses this to apply a multiplicity in
// O(log deg) instead of O(k) single-edge inserts. k <= 0 is a no-op.
// Multiplicities are stored as int32 (a contraction never exceeds 3 per
// pair); a k beyond that domain panics rather than silently truncating.
func (g *Graph) AddEdgeMult(u, v NodeID, k int) {
	if k <= 0 {
		return
	}
	g.AddEdgeMultAt(g.slotOf(u), u, v, -1, k)
}

// AddEdgeMultAt is the slot-native form of AddEdgeMult: su must be u's
// live slot (as handed out by SlotOf, a RunAt cell, or a slot-assign
// hook), so the caller's id->slot probe for u is its only one. sv is
// v's live slot when the caller holds it — say, from the removal that
// just detached the same far endpoint elsewhere — or -1, in which case
// a new pair resolves v, creating it if absent. It returns v's slot,
// read from u's run cell when the pair exists, so a caller that keeps
// slot-indexed state for v needs no probe either (-1 when k <= 0, a
// no-op).
func (g *Graph) AddEdgeMultAt(su int32, u, v NodeID, sv int32, k int) int32 {
	if k <= 0 {
		return -1
	}
	if k > 1<<30 {
		panic(fmt.Sprintf("graph: multiplicity %d exceeds the int32 arena domain", k))
	}
	k32 := int32(k)
	g.maybeCompact()
	g.epoch++
	pos, ok := g.findNbr(su, v)
	if ok {
		// Existing pair: the run cell already stores v's slot, so both
		// halves bump in place with no second map probe (churn hot path).
		r := &g.recs[su]
		if g.pool[r.off+pos].M > 1<<30-k32 {
			panic(fmt.Sprintf("graph: multiplicity of {%d,%d} exceeds the int32 arena domain", u, v))
		}
		g.pool[r.off+pos].M += k32
		r.deg += k32
		if u != v {
			sv := g.pool[r.off+pos].S
			back, ok := g.findNbr(sv, u)
			if !ok {
				panic(fmt.Sprintf("graph: asymmetric edge {%d,%d}", u, v))
			}
			rv := &g.recs[sv]
			g.pool[rv.off+back].M += k32
			rv.deg += k32
		}
		g.edges += k
		return g.pool[r.off+pos].S
	}
	// New pair: unless the caller passed it, v's slot may not exist yet.
	// slotOf only touches the slot table, so pos (u's insertion point)
	// stays valid across it.
	if sv < 0 {
		sv = g.slotOf(v)
	}
	g.insertEntry(su, pos, v, sv, k32)
	if u != v {
		back, _ := g.findNbr(sv, u)
		g.insertEntry(sv, back, u, su, k32)
	}
	g.edges += k
	return sv
}

// RemoveEdge removes one multiplicity of edge {u,v}. It reports whether an
// edge was removed.
func (g *Graph) RemoveEdge(u, v NodeID) bool { return g.RemoveEdgeMult(u, v, 1) == 1 }

// RemoveEdgeMult removes up to k multiplicities of edge {u,v} and returns
// the number actually removed (0 when the edge or either endpoint is
// absent).
func (g *Graph) RemoveEdgeMult(u, v NodeID, k int) int {
	su, ok := g.lookup(u)
	if !ok {
		return 0
	}
	removed, _ := g.RemoveEdgeMultAt(su, u, v, k)
	return removed
}

// RemoveEdgeMultAt is the slot-native form of RemoveEdgeMult: su must be
// u's live slot. It returns the number of multiplicities actually
// removed and v's slot, read from u's run cell (-1 when nothing was
// removed).
func (g *Graph) RemoveEdgeMultAt(su int32, u, v NodeID, k int) (int, int32) {
	if k <= 0 {
		return 0, -1
	}
	g.maybeCompact()
	pos, ok := g.findNbr(su, v)
	if !ok {
		return 0, -1
	}
	r := &g.recs[su]
	if have := int(g.pool[r.off+pos].M); have < k {
		k = have
	}
	g.epoch++
	// u's entry position is already known, and its cell carries v's slot:
	// decrement in place and resolve the back half without touching the
	// id->slot map again (this is the churn hot path).
	sv := g.pool[r.off+pos].S
	g.pool[r.off+pos].M -= int32(k)
	r.deg -= int32(k)
	if g.pool[r.off+pos].M == 0 {
		g.removeEntry(su, pos)
	}
	if u != v {
		g.removeHalf(sv, u, int32(k))
	}
	g.edges -= k
	return k, sv
}

// RemoveNode deletes u and all incident edges. It is a no-op if u is absent.
func (g *Graph) RemoveNode(u NodeID) {
	g.maybeCompact()
	su, ok := g.lookup(u)
	if !ok {
		return
	}
	g.epoch++
	rr := g.recs[su]
	for i := rr.off; i < rr.off+rr.n; i++ {
		c := g.pool[i]
		g.edges -= int(c.M)
		if c.V != u {
			g.removeHalf(c.S, u, c.M)
		}
	}
	r := &g.recs[su]
	g.freeRun(r.off, r.cap)
	*r = nodeRec{}
	g.freeSlots = append(g.freeSlots, su)
	delete(g.index, u)
	if uint64(u) < uint64(len(g.dense)) {
		g.dense[u] = -1
	}
	if g.onSlotRelease != nil {
		g.onSlotRelease(u, su)
	}
}

// BuildRunAt writes the whole run of the node at slot s, which must hold
// no edge: cells sorted strictly by neighbor, each with a positive
// multiplicity. It is for an owner that derives a whole overlay node by
// node, writing every node's run once — a pair of distinct nodes from
// both ends with equal multiplicities, a self-loop once — with no probe
// and no sort; the edge count takes each pair from its smaller end. The
// epoch does not move: the owner derives edges it already counted.
//
//dexvet:noalloc
func (g *Graph) BuildRunAt(s int32, cells []RunCell) {
	r := &g.recs[s]
	if r.n != 0 {
		panic(fmt.Sprintf("graph: BuildRunAt on node %d, which has edges", g.ids[s]))
	}
	if len(cells) == 0 {
		return
	}
	n := int32(len(cells))
	newCap := (n + 3) &^ 3
	off := g.allocRun(newCap)
	g.freeRun(r.off, r.cap)
	r = &g.recs[s]
	r.off, r.cap, r.n = off, newCap, n
	copy(g.pool[off:off+n], cells)
	u := g.ids[s]
	for i, c := range cells {
		if c.M <= 0 || i > 0 && cells[i-1].V >= c.V {
			panic(fmt.Sprintf("graph: BuildRunAt cell %d (%+v) of node %d out of order or empty", i, c, u))
		}
		r.deg += c.M
		if c.S != s {
			r.dist++
		}
		if c.V >= u {
			g.edges += int(c.M)
		}
	}
}

// ClearEdges removes every edge and releases the whole pool, keeping
// the slot table and the epoch: for an owner that keeps the edges
// elsewhere and drops this copy of them (the DEX engine's overlay view,
// which it can derive again from its mapping).
func (g *Graph) ClearEdges() {
	for s := range g.recs {
		g.recs[s] = nodeRec{}
	}
	g.pool = nil
	for i := range g.freeRuns {
		g.freeRuns[i] = nil
	}
	g.freeCells = 0
	g.edges = 0
}

// Compact repacks the pool now, as maybeCompact does once half of it
// sits on free lists: every run snug at its length rounded up to 4
// cells, in slot order, with nothing left on the free lists. The pool's
// length is then a function of the runs' lengths alone, whatever edits
// produced them.
func (g *Graph) Compact() { g.compact() }

// Multiplicity returns the number of parallel {u,v} edges.
func (g *Graph) Multiplicity(u, v NodeID) int {
	s, ok := g.lookup(u)
	if !ok {
		return 0
	}
	pos, ok := g.findNbr(s, v)
	if !ok {
		return 0
	}
	return int(g.pool[g.recs[s].off+pos].M)
}

// HasEdge reports whether at least one {u,v} edge exists.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.Multiplicity(u, v) > 0 }

// Degree returns the multigraph degree of u: the sum of incident edge
// multiplicities, a self-loop counting 1. Returns 0 for absent nodes.
// The arena caches it, so this is O(1).
func (g *Graph) Degree(u NodeID) int {
	if s, ok := g.lookup(u); ok {
		return int(g.recs[s].deg)
	}
	return 0
}

// DistinctDegree returns the number of distinct neighbors of u (excluding
// u itself). This is the number of actual network connections a node
// maintains, the quantity bounded by Theorem 1. O(1) via the slot cache.
func (g *Graph) DistinctDegree(u NodeID) int {
	if s, ok := g.lookup(u); ok {
		return int(g.recs[s].dist)
	}
	return 0
}

// DistinctDegreeAt is DistinctDegree for the node occupying slot s (which
// must be live): the cached count with no id→slot probe.
//
//dexvet:noalloc
func (g *Graph) DistinctDegreeAt(s int32) int { return int(g.recs[s].dist) }

// RunAt returns the run of the node occupying slot s (which must be
// live): one cell per distinct neighbor in ascending id, the node's own
// cell included when it has a self-loop. The run aliases the pool: it is
// read-only, and valid until the next mutation of g. A range loop over
// it is the allocation-free neighbor scan, and every cell hands over the
// neighbor's slot, so slot-indexed side tables are reachable with no map
// probe.
//
//dexvet:noalloc
func (g *Graph) RunAt(s int32) []RunCell {
	r := &g.recs[s] // a copy of the record would spill to the frame
	return g.pool[r.off : r.off+r.n]
}

// RandomNeighborStep picks a neighbor of u proportionally to edge
// multiplicity using the random word r, excluding the node exclude (pass
// -1 to disable; self-loops are legitimate steps that stay put). It is the
// allocation-free walk-hop primitive: one pass computes the total weight,
// a second selects, both over u's contiguous run. Neighbors are considered
// in ascending NodeID order, so for a given r the choice is identical to
// the historical sorted-slice implementation — seeded walks reproduce
// exactly. Walk loops that already hold the current node's slot should
// use RandomNeighborStepAt, which skips this id->slot resolution.
//
//dexvet:noalloc
func (g *Graph) RandomNeighborStep(u, exclude NodeID, r uint64) (NodeID, bool) {
	s, ok := g.lookup(u)
	if !ok {
		return 0, false
	}
	v, _, ok := g.RandomNeighborStepAt(s, exclude, r)
	return v, ok
}

// RandomNeighborStepAt is the slot-native walk hop: it makes exactly the
// choice RandomNeighborStep makes for the node occupying slot s (which
// must be live), and returns the chosen neighbor's slot alongside its id
// so the walk can keep stepping — and its stop predicate can index
// slot-keyed state — without ever touching the id->slot map.
//
//dexvet:noalloc
func (g *Graph) RandomNeighborStepAt(s int32, exclude NodeID, r uint64) (NodeID, int32, bool) {
	return Pick(g.RunAt(s), exclude, r)
}

// Pick is the walk hop on a run, cells sorted by id as RunAt returns
// them: the neighbors in ascending id, each weighted by its multiplicity
// (the node's own cell by its self-loops, which are legitimate steps
// that stay put), exclude skipped (-1 skips none), and the pick
// r % total. It returns the chosen cell's id and slot, and false when
// the run holds no neighbor but exclude. Weighting by multiplicity
// matches the stationary distribution pi(x) = d_x / 2|E| in the proof of
// Lemma 2. One pass sums the weights and a second selects.
//
//dexvet:noalloc
func Pick(run []RunCell, exclude NodeID, r uint64) (NodeID, int32, bool) {
	total := int32(0)
	for i := range run {
		if run[i].V != exclude {
			total += run[i].M
		}
	}
	if total == 0 {
		return 0, -1, false
	}
	pick := int32(r % uint64(total))
	for i := range run {
		if run[i].V == exclude {
			continue
		}
		if pick -= run[i].M; pick < 0 {
			return run[i].V, run[i].S, true
		}
	}
	return 0, -1, false // unreachable: pick < total
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.index))
	for u := range g.index {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Neighbors returns the distinct neighbors of u in ascending order,
// including u itself when u has a self-loop. Hot paths should prefer
// RunAt / RandomNeighborStep, which do not allocate.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	s, ok := g.lookup(u)
	if !ok {
		return nil
	}
	r := g.recs[s]
	out := make([]NodeID, r.n)
	for i := int32(0); i < r.n; i++ {
		out[i] = g.pool[r.off+i].V
	}
	return out
}

// Edge is an undirected edge with multiplicity.
type Edge struct {
	U, V NodeID // U <= V
	Mult int
}

// EdgeDelta is one entry of a batched topology diff: the multiplicity of
// the undirected edge {U,V} changed by Delta (U <= V, Delta != 0).
// Incremental maintainers emit slices of these so subscribers can mirror
// a graph without rescanning it.
type EdgeDelta struct {
	U, V  NodeID
	Delta int
}

// Edges returns all distinct edges in deterministic order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, u := range g.Nodes() {
		r := g.recs[g.index[u]]
		for i := r.off; i < r.off+r.n; i++ {
			if g.pool[i].V < u {
				continue
			}
			out = append(out, Edge{U: u, V: g.pool[i].V, Mult: int(g.pool[i].M)})
		}
	}
	return out
}

// MaxDistinctDegree returns the maximum distinct-neighbor degree.
func (g *Graph) MaxDistinctDegree() int {
	m := int32(0)
	for _, s := range g.index {
		if d := g.recs[s].dist; d > m {
			m = d
		}
	}
	return int(m)
}

// BFSDistances returns a map of shortest-path hop distances from src.
// Nodes unreachable from src are absent from the map.
func (g *Graph) BFSDistances(src NodeID) map[NodeID]int {
	if !g.HasNode(src) {
		return nil
	}
	dist := map[NodeID]int{src: 0}
	frontier := []NodeID{src}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			du := dist[u]
			r := g.recs[g.index[u]]
			for i := r.off; i < r.off+r.n; i++ {
				v := g.pool[i].V
				if _, seen := dist[v]; !seen {
					dist[v] = du + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// ShortestPath returns a shortest path from src to dst (inclusive), or nil
// if unreachable. Ties break deterministically toward smaller IDs.
func (g *Graph) ShortestPath(src, dst NodeID) []NodeID {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	if src == dst {
		return []NodeID{src}
	}
	parent := map[NodeID]NodeID{src: src}
	frontier := []NodeID{src}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			r := g.recs[g.index[u]]
			for i := r.off; i < r.off+r.n; i++ {
				v := g.pool[i].V
				if _, seen := parent[v]; seen {
					continue
				}
				parent[v] = u
				if v == dst {
					var path []NodeID
					for w := dst; ; w = parent[w] {
						path = append(path, w)
						if w == src {
							break
						}
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return nil
}

// Connected reports whether the graph is connected (empty and single-node
// graphs count as connected).
func (g *Graph) Connected() bool {
	if len(g.index) <= 1 {
		return true
	}
	var src NodeID
	for u := range g.index {
		//dexvet:allow determinism any start node yields the same connectivity verdict; src never leaves this function
		src = u
		break
	}
	return len(g.BFSDistances(src)) == len(g.index)
}

// Diameter returns the exact hop diameter via all-sources BFS, or -1 if
// the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if len(g.index) == 0 {
		return -1
	}
	diam := 0
	for u := range g.index {
		//dexvet:allow determinism BFSDistances is a pure query; the loop folds a max and returns only the constant -1
		dist := g.BFSDistances(u)
		if len(dist) != len(g.index) {
			return -1
		}
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Eccentricity returns the maximum BFS distance from src, or -1 if some
// node is unreachable.
func (g *Graph) Eccentricity(src NodeID) int {
	dist := g.BFSDistances(src)
	if len(dist) != len(g.index) {
		return -1
	}
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Quotient builds the contraction of g under the supplied mapping: each
// node u maps to group phi(u); every edge {u,v} becomes {phi(u),phi(v)}
// with multiplicities accumulated, including resulting self-loops. This is
// exactly the vertex-contraction operation of Lemma 10 (spectral gap can
// only grow), used to derive the real network from the virtual graph.
func (g *Graph) Quotient(phi func(NodeID) NodeID) *Graph {
	q := New()
	for u := range g.index {
		//dexvet:allow determinism phi is a pure mapping and AddNode is an idempotent set insert, so the built node set is order-independent
		q.AddNode(phi(u))
	}
	for _, e := range g.Edges() {
		q.AddEdgeMult(phi(e.U), phi(e.V), e.Mult)
	}
	return q
}

// CSR is a compressed sparse row snapshot of a graph for numeric kernels.
// Index i corresponds to IDs[i]; Adj[RowPtr[i]:RowPtr[i+1]] lists neighbor
// indices with per-entry weights Wt (edge multiplicities; self-loops once).
type CSR struct {
	IDs    []NodeID
	Index  map[NodeID]int
	RowPtr []int32
	Adj    []int32
	Wt     []float64
	Deg    []float64 // multigraph degrees
}

// ToCSR snapshots the graph. Ordering is deterministic.
func (g *Graph) ToCSR() *CSR {
	ids := g.Nodes()
	idx := make(map[NodeID]int, len(ids))
	for i, u := range ids {
		idx[u] = i
	}
	c := &CSR{
		IDs:    ids,
		Index:  idx,
		RowPtr: make([]int32, len(ids)+1),
		Deg:    make([]float64, len(ids)),
	}
	nnz := 0
	for _, u := range ids {
		nnz += int(g.recs[g.index[u]].n)
	}
	c.Adj = make([]int32, 0, nnz)
	c.Wt = make([]float64, 0, nnz)
	for i, u := range ids {
		r := g.recs[g.index[u]]
		for j := r.off; j < r.off+r.n; j++ {
			c.Adj = append(c.Adj, int32(idx[g.pool[j].V]))
			m := float64(g.pool[j].M)
			c.Wt = append(c.Wt, m)
			c.Deg[i] += m
		}
		c.RowPtr[i+1] = int32(len(c.Adj))
	}
	return c
}

// ArenaStats describes the arena's occupancy, for memory gates and the
// dexsim -memstats report.
type ArenaStats struct {
	Nodes     int // live nodes
	LiveCells int // neighbor entries in use (sum of run lengths)
	LiveCaps  int // cells reserved by live runs (sum of run capacities)
	PoolLen   int // pool cells carved so far
	PoolCap   int // pool cells allocated (backing array capacity)
	FreeCells int // cells parked on the free lists
}

// Stats reports the arena's current occupancy.
func (g *Graph) Stats() ArenaStats {
	st := ArenaStats{
		Nodes:     len(g.index),
		PoolLen:   len(g.pool),
		PoolCap:   cap(g.pool),
		FreeCells: g.freeCells,
	}
	for _, s := range g.index {
		st.LiveCells += int(g.recs[s].n)
		st.LiveCaps += int(g.recs[s].cap)
	}
	return st
}

// Validate checks internal consistency — arena run ordering, adjacency
// symmetry, cached degree accounting, and the handshake identity — for
// use in tests and the DEX invariant checker. It returns an error
// describing the first inconsistency found.
//
//dexvet:allow determinism audit-only: any inconsistency fails validation; which of several is reported first is immaterial and never feeds back into engine state
func (g *Graph) Validate() error {
	total := 0
	for u, s := range g.index {
		if g.ids[s] != u {
			return fmt.Errorf("graph: slot %d holds id %d, index says %d", s, g.ids[s], u)
		}
		r := g.recs[s]
		if r.n > r.cap || r.n < 0 {
			return fmt.Errorf("graph: node %d run length %d exceeds capacity %d", u, r.n, r.cap)
		}
		deg, dist := int32(0), int32(0)
		var prev NodeID
		for i := int32(0); i < r.n; i++ {
			v, m := g.pool[r.off+i].V, g.pool[r.off+i].M
			if i > 0 && v <= prev {
				return fmt.Errorf("graph: node %d run not strictly sorted at %d", u, v)
			}
			prev = v
			if m <= 0 {
				return fmt.Errorf("graph: nonpositive multiplicity %d on {%d,%d}", m, u, v)
			}
			deg += m
			if v == u {
				if vs := g.pool[r.off+i].S; vs != s {
					return fmt.Errorf("graph: self-loop slot cell of %d holds %d, want %d", u, vs, s)
				}
				total += 2 * int(m) // count loops once overall
				continue
			}
			dist++
			sv, ok := g.index[v]
			if !ok {
				return fmt.Errorf("graph: dangling neighbor %d of %d", v, u)
			}
			if vs := g.pool[r.off+i].S; vs != sv {
				return fmt.Errorf("graph: slot cell for neighbor %d of %d holds %d, want %d", v, u, vs, sv)
			}
			pos, ok := g.findNbr(sv, u)
			if !ok {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}: no back entry", u, v)
			}
			if back := g.pool[g.recs[sv].off+pos].M; back != m {
				return fmt.Errorf("graph: asymmetric multiplicity {%d,%d}: %d vs %d", u, v, m, back)
			}
			total += int(m)
		}
		if deg != r.deg {
			return fmt.Errorf("graph: node %d cached degree %d, actual %d", u, r.deg, deg)
		}
		if dist != r.dist {
			return fmt.Errorf("graph: node %d cached distinct degree %d, actual %d", u, r.dist, dist)
		}
	}
	if total != 2*g.edges {
		return fmt.Errorf("graph: edge count mismatch: handshake sum %d, 2*edges %d", total, 2*g.edges)
	}
	// Every slot is live or free, never both (AppendBinary writes the
	// live flags from the free-slot stack).
	if len(g.index)+len(g.freeSlots) != len(g.ids) {
		return fmt.Errorf("graph: %d live + %d free slots != %d total", len(g.index), len(g.freeSlots), len(g.ids))
	}
	for _, s := range g.freeSlots {
		if g.liveAt(int(s)) {
			return fmt.Errorf("graph: slot %d both live and free", s)
		}
	}
	// Dense fast-path coherence: every in-range cell must agree with the
	// authoritative map in both directions, or lookup would resolve an id
	// to a stale slot (and mutate someone else's run) or report a live
	// node absent.
	for i, s := range g.dense {
		live, ok := g.index[NodeID(i)]
		if ok && s != live {
			return fmt.Errorf("graph: dense[%d] = %d, index says %d", i, s, live)
		}
		if !ok && s != -1 {
			return fmt.Errorf("graph: dense[%d] = %d for absent id", i, s)
		}
	}
	// Arena disjointness: live runs and free-list runs must not overlap —
	// an aliased run would let one node's insert silently rewrite another
	// node's adjacency.
	owner := make([]int32, len(g.pool))
	for i := range owner {
		owner[i] = -1
	}
	for _, s := range g.index {
		r := g.recs[s]
		for i := r.off; i < r.off+r.cap; i++ {
			if owner[i] != -1 {
				return fmt.Errorf("graph: cell %d owned by slots %d and %d", i, owner[i], s)
			}
			owner[i] = s
		}
	}
	for class, fl := range g.freeRuns {
		capn := int32(class * 4)
		for _, off := range fl {
			for i := off; i < off+capn; i++ {
				if owner[i] != -1 {
					return fmt.Errorf("graph: free cell %d (class %d run @%d) owned by slot %d", i, class, off, owner[i])
				}
				owner[i] = -2
			}
		}
	}
	return nil
}
