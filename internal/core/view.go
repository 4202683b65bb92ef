package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// This file is the overlay: how the engine records its changes, reads a
// node's neighbors mid-step, and keeps graph.Graph as a view.
//
// DEX defines the real network G_t as the contraction of the virtual
// structure under the mapping Phi (invariant I4), so a node's neighbors
// are a function of the mapping: wantRow enumerates them from Sim(u),
// simOf and the inverse table, mid-stagger included. A vertex move
// updates Phi, the store, the topology and epoch counts and, while an
// edge observer is registered, the step's edge log (edgeChanged); and
// while no view is kept, every adjacency read — a walk hop, the
// adoption's smallest neighbor, the coordinator's distinct degree, the
// adoption's emptiness check — comes from the node's contraction row
// (rowAt), plus the insert's temporary attach edge while that edge
// exists.
//
// nw.real keeps the overlay's slot table always (the store addresses
// its rows by its slots, and checkpoints write it). Its adjacency is a
// view, kept from then on once something observes it — Graph(), or a
// Simplified size-count flood (observe) — or while derived rows are
// long. A broadcast's cost and a one-step rebuild's diff read a view
// too, materializing it if none is kept, but keep it only to the step's
// end unless the mean load would keep one; DeleteBatch's checks read
// derived rows when no view is kept, as the walks do.
// Two readers observe the overlay without any view: an edge observer,
// fed from the edge log, which edgeChanged writes either way, and
// Snapshot, which copies a kept view or else derives its copy from the
// mapping the way materialize derives the view. A derived row costs a
// few scattered loads per vertex the node simulates, so past a mean
// load of viewOnLoad a walk hop reads far more than the view's run and
// the engine keeps the view for its own walks until the mean load falls
// below viewOffLoad. A kept view is edited with each change as it
// happens, one per-edge graph call per change, and every read comes
// from it: a view brought current once per step from the netted log
// measured slower, because walks start at the nodes a step changed,
// whose rows then have to be rebuilt. Nothing keeps a view on a bare
// network's steady churn, nor on a durable, evented façade's, so there
// the engine touches no adjacency at all.

// tempEdge is the insert's temporary attach edge {a, b} (the newborn a
// and its attach point b, at slots sa and sb), which Algorithm 4.2 wires
// before recovery and drops after it. It is part of the overlay, not of
// the contraction, while on is set.
type tempEdge struct {
	a, b   NodeID
	sa, sb int32
	on     bool
}

// coordCache holds the coordinator's distinct degree, which
// chargeCoordinatorNotify reads on every operation: deg for node id at
// slot, computed at dirty generation gen. It stays valid while the node
// is not marked dirty again (see coordDegree).
type coordCache struct {
	id   NodeID
	slot int32
	gen  uint32
	deg  int
}

// --- recording changes -------------------------------------------------------

// edgeChanged records a change of k (k != 0) in the multiplicity of
// overlay edge {a,b}, a at live slot sa and b at sb (-1 to resolve it),
// without charging the paper's topology-change counter: it edits a kept
// view (whose graph call advances the epoch, and hands back b's slot
// from a's run cell when the pair exists) or else advances the epoch by
// the one that call would have taken and updates a cached row of either
// end; marks both ends dirty (a then b, the order sampled audits meet
// them in); keeps the edge count; appends the change to the edge
// observer's log while one is registered; and returns b's slot.
//
//dexvet:noalloc
func (nw *Network) edgeChanged(a NodeID, sa int32, b NodeID, sb int32, k int) int32 {
	switch g := nw.real; {
	case !nw.viewKept:
		if sb < 0 {
			sb = nw.st.slot(b)
		}
		g.SetEpoch(g.Epoch() + 1)
		for i := range nw.cached {
			switch c := &nw.cached[i]; c.slot {
			case sa:
				c.change(b, sb, k)
			case sb:
				c.change(a, sa, k)
			}
		}
	case k > 0:
		sb = g.AddEdgeMultAt(sa, a, b, sb, k)
		nw.viewEdited = true
	default:
		var got int
		if got, sb = g.RemoveEdgeMultAt(sa, a, b, -k); got != -k {
			panic(fmt.Sprintf("core: removing %d of edge {%d,%d}, only %d present", -k, a, b, got))
		}
		nw.viewEdited = true
	}
	nw.st.markDirtyAt(a, sa)
	nw.st.markDirtyAt(b, sb)
	nw.edges += k
	if nw.edgeObserver != nil {
		if a > b {
			a, b = b, a
		}
		nw.edgeLog = append(nw.edgeLog, graph.EdgeDelta{U: a, V: b, Delta: k})
	}
	return sb
}

// addRealEdgeAt / removeRealEdgeAt change one multiplicity of {a,b}
// through edgeChanged, count the topology change for the current step
// and return b's slot. They and the one-step rebuild's rewire are the
// only places the overlay changes.
//
//dexvet:noalloc
func (nw *Network) addRealEdgeAt(a NodeID, sa int32, b NodeID, sb int32) {
	nw.edgeChanged(a, sa, b, sb, 1)
	nw.step.TopologyChanges++
}

//dexvet:noalloc
func (nw *Network) removeRealEdgeAt(a NodeID, sa int32, b NodeID, sb int32) int32 {
	sb = nw.edgeChanged(a, sa, b, sb, -1)
	nw.step.TopologyChanges++
	return sb
}

// edgeLogRetainCap bounds the capacity the edge log keeps between
// steps. A staggered step logs O(batch) entries, under a thousand in a
// 4096-to-24096-node staggered run; a one-step rebuild logs O(n), and
// keeping that spike's backing array would pin megabytes for the rest
// of the run.
const edgeLogRetainCap = 1 << 14

// resetEdgeLog empties the edge log, dropping a spike's capacity (see
// edgeLogRetainCap).
func (nw *Network) resetEdgeLog() {
	if cap(nw.edgeLog) > edgeLogRetainCap {
		nw.edgeLog = nil
		return
	}
	nw.edgeLog = nw.edgeLog[:0]
}

// shortEdgeLog is the longest edge log netLog Shell-sorts (shellGaps);
// longer ones go to slices.SortFunc. A steady-state insert logs 8
// entries and a delete 6 at the median, with a tail of a few hundred,
// where SortFunc's comparator calls cost about twice the Shell sort's
// moves. Shell sort's largest gap is fixed, so it loses from about
// 2*10^5 entries on, which a one-step rebuild's O(p) entries
// (overlayDeltas) reach; the bound is the largest size it measured
// clearly faster at, on random ids and on a contraction's enumeration
// alike (CHANGES.md).
const shortEdgeLog = 1 << 17

// netLog sorts log by (U, V) in place, sums each pair's changes, drops
// zero sums and returns the netted prefix. Entries of one pair are
// summed, so the order among them is immaterial and the result does not
// depend on which sort ran.
func netLog(log []graph.EdgeDelta) []graph.EdgeDelta {
	if len(log) <= shortEdgeLog {
		for _, gap := range shellGaps {
			for i := gap; i < len(log); i++ {
				d, j := log[i], i
				for ; j >= gap && (log[j-gap].U > d.U || log[j-gap].U == d.U && log[j-gap].V > d.V); j -= gap {
					log[j] = log[j-gap]
				}
				log[j] = d
			}
		}
	} else {
		slices.SortFunc(log, func(a, b graph.EdgeDelta) int {
			return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
		})
	}
	n := 0
	for i := 0; i < len(log); {
		d := log[i]
		for i++; i < len(log) && log[i].U == d.U && log[i].V == d.V; i++ {
			d.Delta += log[i].Delta
		}
		if d.Delta != 0 {
			log[n] = d
			n++
		}
	}
	return log[:n]
}

// flushEdgeDeltas delivers the step's edge diff to the edge observer:
// the edge log netted (netLog), in a copy the observer may keep. A step
// whose diff nobody takes (edgeDemand) skips both: beginStep empties
// the log unnetted.
func (nw *Network) flushEdgeDeltas() {
	if nw.edgeObserver == nil || len(nw.edgeLog) == 0 || nw.edgeDemand != nil && !nw.edgeDemand() {
		return
	}
	d := netLog(nw.edgeLog)
	nw.resetEdgeLog()
	if len(d) == 0 {
		return
	}
	// Subscribers may keep the batch, so it must not alias the log.
	nw.edgeObserver(nw.step.Step, slices.Clone(d))
}

// --- the view ----------------------------------------------------------------

// viewOnLoad and viewOffLoad bound the mean load p/n between which the
// engine keeps a view for its own walks (see the file comment): on
// above viewOnLoad, off again below viewOffLoad. Derived rows hold about
// 3 p/n entries; per delete+insert pair they measured cheaper than a
// kept view up to p/n = 6 and dearer from 8 on (CHANGES.md). On the
// steady networks the benchmarks grow by single joins p/n is about 2.6,
// and a wave's high-load phases, where walks retry most, reach 16. The
// gap between the bounds keeps a network whose load wanders across one
// bound from deriving the whole view, O(p), at every crossing.
const (
	viewOnLoad  = 8
	viewOffLoad = 4
)

// view returns the overlay, materializing it when no view is kept: a
// broadcast's cost and a one-step rebuild's diff read it through here.
// A view it materializes is the step's own (viewForStep), and steerView
// drops it at the step's end unless the mean load would keep one.
func (nw *Network) view() *graph.Graph {
	if !nw.viewKept {
		nw.materialize()
		nw.viewForStep = true
	}
	return nw.real
}

// observe is view for the readers that keep the view from then on:
// Graph(), whose caller holds the live graph, and the Simplified
// size-count floods, which run at every failed walk.
func (nw *Network) observe() *graph.Graph {
	nw.observed = true
	return nw.view()
}

// steerView keeps or drops an unobserved view by the mean load (see
// viewOnLoad), between steps. A view the step materialized for its own
// reads is kept only past viewOnLoad, as one the step began without.
func (nw *Network) steerView() {
	forStep := nw.viewForStep
	nw.viewForStep = false
	if nw.observed {
		return
	}
	p, n := nw.z.P(), int64(nw.Size())
	switch {
	case !nw.viewKept && p > viewOnLoad*n:
		nw.materialize()
	case nw.viewKept && (p < viewOffLoad*n || forStep && p <= viewOnLoad*n):
		nw.real.ClearEdges()
		nw.viewKept = false
		nw.resolveSimSlots()
	}
}

// materialize derives the overlay into nw.real, which holds no edge yet,
// and keeps it from now on (deriveRuns). The epoch stays put: it already
// counts every change the funnels recorded.
func (nw *Network) materialize() {
	nw.deriveRuns(nw.real)
	nw.dropCached(-1) // a kept view is read instead, and not mirrored here
	nw.viewKept = true
	nw.simSlot = nil // moves take far slots from the view's cells
}

// deriveRuns writes the overlay's adjacency into g, a graph holding
// nw.real's slot table and no edge: each node's run is its derived row
// as cells (rowCells, the temporary attach edge included while it
// exists), written once by graph.BuildRunAt. rowCells leaves an exact
// row in the cache it derives into, so the row caches stay exact.
func (nw *Network) deriveRuns(g *graph.Graph) {
	for _, e := range nw.st.nodeList {
		g.BuildRunAt(e.slot, nw.rowCells(e.id, e.slot).cells)
	}
}

// Snapshot returns a deep copy of the overlay and the epoch it was
// taken at, without keeping a view: a kept view is cloned as it is
// (not compacted first, so its pool keeps the view's slack), and
// otherwise the copy is derived from the mapping into a clone of the
// slot table (deriveRuns), O(p) either way. At 10^5 nodes a derived
// copy measured about 90 ms and a clone of a kept view about 12 ms
// (CHANGES.md), so a caller that snapshots repeatedly keeps a view
// through Graph() and pays one clone per snapshot.
func (nw *Network) Snapshot() (*graph.Graph, uint64) {
	if nw.viewKept {
		return nw.real.Snapshot()
	}
	g := nw.real.Clone()
	nw.deriveRuns(g)
	return g, g.Epoch()
}

// overlayDeltas returns the contraction of the virtual structure as a
// netted batch, each distinct pair once with its multiplicity.
// Construction and one-step rebuilds call it, O(p) entries each time,
// so it allocates instead of pinning scratch of that size.
func (nw *Network) overlayDeltas() []graph.EdgeDelta {
	var log []graph.EdgeDelta
	nw.contractionEdges(func(a, b NodeID) bool {
		if a > b {
			a, b = b, a
		}
		log = append(log, graph.EdgeDelta{U: a, V: b, Delta: 1})
		return true
	})
	return netLog(log)
}

// --- derived reads -------------------------------------------------------------

// rowAt returns node u's overlay row, derived from the mapping and
// unsorted: the far end of every incidence of u once per unit of
// multiplicity — wantRow's row — plus u itself once per self-loop (the
// virtual self-loops and half the incidences with both ends at u, as
// graph.Graph counts a self cell), plus the temporary attach edge's far
// end when u is one of its ends. Sorted and read as cells (runs of equal
// ids with their lengths as multiplicities), it is exactly the arena run
// the view holds for u once current. nw.rowSlots holds each entry's slot
// in step with it, or -1 where the mapping does not hold the slot (a new
// cycle's edge mid-rebuild; resolve it with st.slot). Both share
// wantRow's scratch and are valid until the next call of either.
//
//dexvet:noalloc
func (nw *Network) rowAt(u NodeID, su int32) []NodeID {
	row, loops, same := nw.gatherRow(u, su, true)
	rs := nw.rowSlots
	for k := loops + same/2; k > 0; k-- {
		row, rs = append(row, u), append(rs, su)
	}
	if t := nw.tmp; t.on && (su == t.sa || su == t.sb) {
		if su == t.sa {
			row, rs = append(row, t.b), append(rs, t.sb)
		} else {
			row, rs = append(row, t.a), append(rs, t.sa)
		}
	}
	nw.auditRow, nw.rowSlots = row, rs
	return row
}

// hopRows is the row source the engine's walks hop over (congest.Rows).
type hopRows struct{ nw *Network }

// Step makes the walk hop graph.RandomNeighborStepAt would make on u's
// current arena run: from the view while one is kept, else on u's row
// as cells (rowCells), which are that run — cached, or built for the
// pinned adopter every walk of a delete's redistribution leaves from.
// Any other node is usually left once, so its hop is picked on rowAt's
// unsorted derived row instead: the run's cells in ascending id, each
// weighted by its multiplicity, with exclude skipped, are the row's
// entries other than exclude in ascending id, one unit each, so the
// pick r % total is the entry of that rank, which selectRank finds
// without sorting the row.
//
//dexvet:noalloc
func (h hopRows) Step(u NodeID, s int32, exclude NodeID, r uint64) (NodeID, int32, bool) {
	nw := h.nw
	if nw.viewKept {
		return nw.real.RandomNeighborStepAt(s, exclude, r)
	}
	if s == nw.pinned || nw.cached[0].slot == s || nw.cached[1].slot == s {
		return nw.rowCells(u, s).pick(exclude, r)
	}
	row, rs, n := nw.rowAt(u, s), nw.rowSlots, 0
	for i, v := range row {
		if v != exclude {
			row[n], rs[n] = v, rs[i]
			n++
		}
	}
	if n == 0 {
		return 0, -1, false
	}
	i := selectRank(row[:n], rs[:n], int(r%uint64(n)))
	if rs[i] < 0 {
		return row[i], nw.st.slot(row[i]), true
	}
	return row[i], rs[i], true
}

// selectRank reorders ids, and slots in step, until ids[k] holds the
// value of rank k in ascending order, and returns k: three-way
// quickselect down to a short range, which an insertion sort finishes.
// Equal ids are one node, so any entry holding the rank's value names
// it, and its slot is that node's (or -1).
//
//dexvet:noalloc
func selectRank(ids []NodeID, slots []int32, k int) int {
	lo, hi := 0, len(ids)-1
	for hi-lo > 16 {
		pivot := ids[lo+(hi-lo)/2]
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := ids[i]; {
			case v < pivot:
				ids[lt], ids[i] = v, ids[lt]
				slots[lt], slots[i] = slots[i], slots[lt]
				lt++
				i++
			case v > pivot:
				ids[gt], ids[i] = v, ids[gt]
				slots[gt], slots[i] = slots[i], slots[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return k
		}
	}
	for i := lo + 1; i <= hi; i++ {
		v, vs, j := ids[i], slots[i], i
		for ; j > lo && ids[j-1] > v; j-- {
			ids[j], slots[j] = ids[j-1], slots[j-1]
		}
		ids[j], slots[j] = v, vs
	}
	return k
}

// rowCache holds one node's overlay row as cells sorted by id — the
// form of its arena run — for the node at slot (-1: empty). It is
// derived once (rowCells) and kept exact from then on: edgeChanged
// applies every change of an edge at the node, and a one-step rebuild
// or the node's removal empties it. The network keeps two: one for the
// adopter a delete's redistribution pins and one for any other node, so
// the walks that redistribution starts, one per orphan, at the same
// adopter derive the adopter's row once, not once per walk.
type rowCache struct {
	slot  int32
	cells []graph.RunCell
}

// pick makes RandomNeighborStepAt's choice on the cells: ascending id,
// weighted by multiplicity, exclude skipped, the pick r % total.
//
//dexvet:noalloc
func (c *rowCache) pick(exclude NodeID, r uint64) (NodeID, int32, bool) {
	total := int32(0)
	for _, e := range c.cells {
		if e.V != exclude {
			total += e.M
		}
	}
	if total == 0 {
		return 0, -1, false
	}
	k := int32(r % uint64(total))
	for _, e := range c.cells {
		if e.V == exclude {
			continue
		}
		if k -= e.M; k < 0 {
			return e.V, e.S, true
		}
	}
	return 0, -1, false // unreachable: k < total
}

// change applies a change of k in the multiplicity of the edge to v (at
// slot vs) to the cells.
//
//dexvet:noalloc
func (c *rowCache) change(v NodeID, vs int32, k int) {
	i := 0
	for i < len(c.cells) && c.cells[i].V < v {
		i++
	}
	if i < len(c.cells) && c.cells[i].V == v {
		if c.cells[i].M += int32(k); c.cells[i].M == 0 {
			c.cells = append(c.cells[:i], c.cells[i+1:]...)
		}
		return
	}
	if k < 0 {
		panic(fmt.Sprintf("core: removing an edge to %d the row does not hold", v))
	}
	c.cells = slices.Insert(c.cells, i, graph.RunCell{V: v, S: vs, M: int32(k)})
}

// rowCells returns node u's row as cells (see rowCache): a cached one
// when either cache holds u, else derived from the mapping (rowAt) into
// the pinned adopter's cache (when u is it) or into the other one.
//
//dexvet:noalloc
func (nw *Network) rowCells(u NodeID, su int32) *rowCache {
	for i := range nw.cached {
		if nw.cached[i].slot == su {
			return &nw.cached[i]
		}
	}
	c := &nw.cached[1]
	if su == nw.pinned {
		c = &nw.cached[0]
	}
	cells := c.cells[:0]
	row, rs := nw.rowAt(u, su), nw.rowSlots
	for i, v := range row {
		cells = append(cells, graph.RunCell{V: v, S: rs[i], M: 1})
	}
	sortCells(cells)
	n := 0
	for i := 0; i < len(cells); {
		e := cells[i]
		for i++; i < len(cells) && cells[i].V == e.V; i++ {
			e.M++
			e.S = max(e.S, cells[i].S)
		}
		if e.S < 0 {
			e.S = nw.st.slot(e.V)
		}
		cells[n] = e
		n++
	}
	c.slot, c.cells = su, cells[:n]
	return c
}

// shellGaps are Ciura's Shell sort gaps, which sortCells and netLog
// share; the last pass, gap 1, is the insertion sort that alone
// finishes a short input.
var shellGaps = [...]int{1750, 701, 301, 132, 57, 23, 10, 4, 1}

// sortCells sorts cells by id: Shell sort over shellGaps.
//
//dexvet:noalloc
func sortCells(cells []graph.RunCell) {
	for _, gap := range shellGaps {
		for i := gap; i < len(cells); i++ {
			e, j := cells[i], i
			for ; j >= gap && cells[j-gap].V > e.V; j -= gap {
				cells[j] = cells[j-gap]
			}
			cells[j] = e
		}
	}
}

// dropCached empties whichever row cache holds slot s (every one, for
// s < 0). A node's removal drops its row.
func (nw *Network) dropCached(s int32) {
	for i := range nw.cached {
		if s < 0 || nw.cached[i].slot == s {
			nw.cached[i].slot = -1
		}
	}
}

// distinctDegreeAt is graph.DistinctDegreeAt for node u at slot su: the
// number of distinct neighbors other than u, read from the view when it
// holds u's row, else counted on u's cells.
//
//dexvet:noalloc
func (nw *Network) distinctDegreeAt(u NodeID, su int32) int {
	if nw.viewKept {
		return nw.real.DistinctDegreeAt(su)
	}
	d := 0
	for _, e := range nw.rowCells(u, su).cells {
		if e.V != u {
			d++
		}
	}
	return d
}

// degreeAt is graph.Degree for node u at slot su: its incidences, a
// self-loop counted once.
func (nw *Network) degreeAt(u NodeID, su int32) int {
	if nw.viewKept {
		return nw.real.Degree(u)
	}
	return len(nw.rowAt(u, su))
}

// smallestNeighbor returns node u's smallest neighbor other than itself
// and the nodes in skip (nil skips none), with its slot, or (-1, -1)
// when there is none: the first such cell of the view's run while a
// view is kept, else the least such entry of rowAt's derived row.
func (nw *Network) smallestNeighbor(u NodeID, su int32, skip map[NodeID]bool) (NodeID, int32) {
	if nw.viewKept {
		found, fs := NodeID(-1), int32(-1)
		nw.real.ForEachNeighborAt(su, func(v NodeID, vs int32, _ int) bool {
			if vs != su && (skip == nil || !skip[v]) {
				found, fs = v, vs
				return false
			}
			return true
		})
		return found, fs
	}
	at, row := -1, nw.rowAt(u, su)
	for i, v := range row {
		if v != u && (at < 0 || v < row[at]) && (skip == nil || !skip[v]) {
			at = i
		}
	}
	if at < 0 {
		return -1, -1
	}
	if s := nw.rowSlots[at]; s >= 0 {
		return row[at], s
	}
	return row[at], nw.st.slot(row[at])
}

// coordDegree returns the coordinator's distinct degree, which every
// operation's notify charges: simOf[0]'s, which a phase-2 rebuild that
// dropped vertex 0 leaves naming its old simulator, and 0 once that
// node is gone. It is derived once and cached, and the
// cache holds while the coordinator is the same node at the same slot
// and has not been marked dirty since the generation it was computed
// in: a node marked in that generation or later may have changed after
// the computation. beginStep drops the cache when the dirty generations
// wrap.
func (nw *Network) coordDegree() int {
	c := nw.simOf[0]
	s, ok := nw.real.SlotOf(c)
	if !ok {
		return 0 // vertex 0 dropped mid-rebuild, and its old simulator gone
	}
	cc := &nw.coord
	if cc.slot == s && cc.id == c && nw.st.rows[s].dirtyAt < cc.gen {
		return cc.deg
	}
	d := nw.distinctDegreeAt(c, s)
	*cc = coordCache{id: c, slot: s, gen: nw.st.dirtyGen, deg: d}
	return d
}

// --- one-step rebuilds ----------------------------------------------------------

// rewire replaces the edges of g, the overlay of the old mapping, with
// the contraction of the mapping a one-step rebuild has just installed,
// as a diff: only pairs whose multiplicity changes are touched, each
// through edgeChanged (so it marks its ends dirty, advances the epoch by
// one and reaches the edge observer), so subscribers receive one batched
// diff and the graph pointer stays stable. The temporary attach edge, if
// any, is not part of the new overlay. Pairs are visited by ascending
// first end and, for each, the new overlay's pairs before the dropped
// ones.
func (nw *Network) rewire(g *graph.Graph) {
	old := g.Edges()
	nw.tmp.on = false
	want := nw.overlayDeltas()
	change := func(u, v NodeID, d int) {
		nw.edgeChanged(u, nw.st.slot(u), v, nw.st.slot(v), d)
	}
	i, j := 0, 0
	for i < len(old) || j < len(want) {
		var u NodeID
		switch {
		case i == len(old):
			u = want[j].U
		case j == len(want):
			u = old[i].U
		default:
			u = min(old[i].U, want[j].U)
		}
		oi := i
		for ; i < len(old) && old[i].U == u; i++ {
		}
		wj := j
		for ; j < len(want) && want[j].U == u; j++ {
		}
		ogrp, wgrp := old[oi:i], want[wj:j]
		k := 0
		for _, w := range wgrp {
			for k < len(ogrp) && ogrp[k].V < w.V {
				k++
			}
			m := 0
			if k < len(ogrp) && ogrp[k].V == w.V {
				m = ogrp[k].Mult
			}
			if d := w.Delta - m; d != 0 {
				change(u, w.V, d)
			}
		}
		k = 0
		for _, o := range ogrp {
			for k < len(wgrp) && wgrp[k].V < o.V {
				k++
			}
			if k == len(wgrp) || wgrp[k].V != o.V {
				change(u, o.V, -o.Mult)
			}
		}
	}
}

// --- construction and restore -------------------------------------------------

// countOverlay sets the edge count of a network built or restored
// without a view: the contraction's, every end of which must be a live
// node.
func (nw *Network) countOverlay() error {
	nw.edges = 0
	var err error
	nw.contractionEdges(func(a, b NodeID) bool {
		if !nw.st.has(a) || !nw.st.has(b) {
			err = fmt.Errorf("core: derived edge {%d,%d} ends at a node the slot table lacks", a, b)
			return false
		}
		nw.edges++
		return true
	})
	return err
}
