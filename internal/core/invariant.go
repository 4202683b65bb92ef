package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// CheckInvariants validates every structural property the paper
// guarantees. It is O(p + E) and intended for tests and the harness's
// audit mode, not for per-step production use.
//
// Checked invariants (the view is the overlay's kept adjacency, see
// Graph; checking never materializes it):
//
//	(I1) the overlay's slot table and, when a view is kept, its
//	     adjacency are internally consistent;
//	(I2) Phi is a function onto the node set: simOf and the per-node Sim
//	     sets agree, and every node simulates >= 1 vertex (Definition 2);
//	     without a view, simSlot holds each vertex's simulator's slot;
//	(I3) loads: load(u) = |Sim(u)| (+ new holdings during staggering),
//	     bounded by 4*zeta steady-state (Lemma 3/5) and 8*zeta during a
//	     staggered rebuild (Lemma 9(a));
//	(I4) the real graph is exactly the contraction of the current virtual
//	     structure under Phi - including, mid-rebuild, the partial new
//	     cycle and its intermediate edges: the view equals it when kept,
//	     and the edge count equals its edge count either way;
//	(I5) the real graph is connected (the view when kept, else the
//	     contraction it is derived from);
//	(I6) the coordinator's |Spare| and |Low| counters match a recount;
//	(I7) p is prime and p >= n (surjectivity requires it);
//	(I8) staggering bookkeeping (effNew, unprocOld, pending) is coherent.
func (nw *Network) CheckInvariants() error { return nw.checkInvariants(true) }

// checkInvariants is CheckInvariants with the I3 load-bound comparison
// optional. Every other property is deterministic bookkeeping; the
// 4*zeta / 8*zeta bounds are the paper's with-high-probability
// guarantees over the walk randomness, which an adversarial random
// source (the fuzzer's biasedSource) legitimately voids through the
// tolerated walk-exhaustion paths. Such runs still must keep the
// structure exact — enforceLoadBounds=false checks exactly that.
//
//dexvet:allow determinism audit-only: any violation fails the check; which of several violations is reported first is immaterial and never feeds back into engine state
func (nw *Network) checkInvariants(enforceLoadBounds bool) error {
	if err := nw.real.Validate(); err != nil {
		return fmt.Errorf("I1: %w", err)
	}
	if err := nw.st.checkCoherence(); err != nil {
		return fmt.Errorf("I3: %w", err)
	}

	// (I2) mapping consistency.
	p := nw.z.P()
	if int64(len(nw.simOf)) != p {
		return fmt.Errorf("I2: simOf length %d != p %d", len(nw.simOf), p)
	}
	if !nw.viewKept && int64(len(nw.simSlot)) != p {
		return fmt.Errorf("I2: simSlot length %d != p %d", len(nw.simSlot), p)
	}
	for x := int64(0); x < p; x++ {
		if nw.stag != nil && nw.stag.phase == 2 && nw.stag.dropped(x) {
			continue
		}
		u := nw.simOf[x]
		s, ok := nw.real.SlotOf(u)
		if !ok {
			return fmt.Errorf("I2: vertex %d mapped to unknown node %d", x, u)
		}
		if !nw.viewKept && nw.simSlot[x] != s {
			return fmt.Errorf("I2: simSlot[%d] = %d, but its simulator %d is at slot %d", x, nw.simSlot[x], u, s)
		}
		if _, ok := slices.BinarySearch(nw.st.setAt(s, false), int32(x)); !ok {
			return fmt.Errorf("I2: vertex %d not in Sim(%d)", x, u)
		}
	}
	// Each mirror entry must name a live node at its own slot, and that
	// slot's row must point back at the entry; the loops below then read
	// every node's state through its entry's slot.
	counted := 0
	for i, e := range nw.st.nodeList {
		s, ok := nw.real.SlotOf(e.id)
		if !ok || s != e.slot || nw.st.mirrorPosAt(s) != i {
			return fmt.Errorf("I2: sampling mirror entry %d holds stale node %d", i, e.id)
		}
		for _, x := range nw.st.setAt(s, false) {
			if nw.simOf[x] != e.id {
				return fmt.Errorf("I2: Sim(%d) contains %d owned by %d", e.id, x, nw.simOf[x])
			}
		}
		counted += nw.st.setLenAt(s, false)
	}
	if nw.stag == nil && int64(counted) != p {
		return fmt.Errorf("I2: %d vertices assigned, want %d", counted, p)
	}

	// (I3) loads and bounds.
	maxLoad := 4 * nw.cfg.Zeta
	if nw.stag != nil {
		maxLoad = 8 * nw.cfg.Zeta
	}
	for _, e := range nw.st.nodeList {
		u, su := e.id, e.slot
		want := nw.st.setLenAt(su, false)
		if nw.stag != nil {
			want += nw.st.setLenAt(su, true)
		}
		if got := nw.st.loadAt(su); got != want {
			return fmt.Errorf("I3: load(%d) = %d, want %d", u, got, want)
		}
		if want < 1 {
			return fmt.Errorf("I3: node %d simulates nothing (surjectivity broken)", u)
		}
		if enforceLoadBounds && want > maxLoad {
			return fmt.Errorf("I3: load(%d) = %d exceeds bound %d", u, want, maxLoad)
		}
	}

	// (I4) real graph = contraction of the virtual structure.
	want := nw.expectedRealGraph()
	if nw.edges != want.NumEdges() {
		return fmt.Errorf("I4: edge count %d, contraction has %d", nw.edges, want.NumEdges())
	}
	overlay := want
	if nw.viewKept {
		if err := graphsEqual(nw.real, want); err != nil {
			return fmt.Errorf("I4: %w", err)
		}
		overlay = nw.real
	}

	// (I5) connectivity.
	if !overlay.Connected() {
		return fmt.Errorf("I5: real graph disconnected (n=%d)", nw.Size())
	}

	// (I6) counter recount.
	spare, low := 0, 0
	for _, e := range nw.st.nodeList {
		l := nw.st.loadAt(e.slot)
		if l >= 2 {
			spare++
		}
		if l <= 2*nw.cfg.Zeta {
			low++
		}
	}
	if spare != nw.nSpare || low != nw.nLow {
		return fmt.Errorf("I6: counters spare=%d/%d low=%d/%d", nw.nSpare, spare, nw.nLow, low)
	}

	// (I7) modulus sanity.
	if int64(nw.Size()) > p {
		return fmt.Errorf("I7: n=%d exceeds p=%d", nw.Size(), p)
	}

	// (I8) staggering bookkeeping.
	if s := nw.stag; s != nil {
		for _, e := range nw.st.nodeList {
			u, su := e.id, e.slot
			unproc, proj := s.unprocessed(nw.st.setAt(su, false))
			if got := nw.st.unprocOldAt(su); got != unproc {
				return fmt.Errorf("I8: unprocOld(%d) = %d, want %d", u, got, unproc)
			}
			if got, n := nw.st.effNewAt(su), nw.st.setLenAt(su, true); got != proj+n {
				return fmt.Errorf("I8: effNew(%d) = %d, want %d+%d", u, got, proj, n)
			}
		}
		for y, u := range s.newSimOf {
			if u < 0 {
				continue
			}
			if su, ok := nw.real.SlotOf(u); !ok || !slices.Contains(nw.st.setAt(su, true), int32(y)) {
				return fmt.Errorf("I8: new vertex %d not in NewSim(%d)", y, u)
			}
		}
		for x, pes := range s.pending {
			if s.processedFlag[x] {
				return fmt.Errorf("I8: pending entries on processed vertex %d", x)
			}
			for _, pe := range pes {
				if s.newSimOf[pe.src] < 0 {
					return fmt.Errorf("I8: pending source %d not generated", pe.src)
				}
				if s.newSimOf[pe.dst] >= 0 {
					return fmt.Errorf("I8: pending target %d already generated", pe.dst)
				}
			}
		}
	}
	return nil
}

// --- audit tiers -------------------------------------------------------------

// AuditMode selects how much invariant checking runs after an operation.
type AuditMode int

const (
	// AuditOff performs no checking.
	AuditOff AuditMode = iota
	// AuditSampled verifies node-local invariants for every node the last
	// operation touched (capped) plus a few randomly sampled nodes, and
	// O(1) global counters. Cost tracks the operation's own footprint,
	// not the network size, so it is affordable on every step of a
	// million-node run.
	AuditSampled
	// AuditFull runs the exhaustive O(p + E) CheckInvariants.
	AuditFull
)

func (m AuditMode) String() string {
	switch m {
	case AuditSampled:
		return "sampled"
	case AuditFull:
		return "full"
	}
	return "off"
}

const (
	// auditDirtyCap bounds how many of the last step's dirty nodes a
	// sampled audit re-verifies (type-2 commits dirty O(n) nodes at once).
	auditDirtyCap = 128
	// auditSampleSize is the number of extra uniformly sampled nodes a
	// sampled audit verifies.
	auditSampleSize = 8
)

// Audit verifies the paper's invariants at the cost tier selected by
// mode. AuditFull is CheckInvariants; AuditSampled checks the nodes
// dirtied by the most recent operation (up to auditDirtyCap of them)
// plus auditSampleSize random nodes, using its own random source so the
// recovery algorithm's coin flips are untouched. A node check compares
// the node's view row with its contraction row only while a view is
// kept; without one there is no stored row to compare, and the check
// keeps its mapping-side part, simSlot included (see checkNodeAt).
//
// A sampled audit first gathers its whole check list — the live dirty
// nodes in dirtyList order, then every sampled mirror entry, which
// carries its node's slot — so that warmAudit can take the list's cache
// misses together, level by level, before the checks run in list order.
// Each check alone is a chain of dependent misses (the slot's row, the
// mirror cell, the Sim run, simOf, the arena run); walked one node at a
// time, no two of them overlap. Every sample is drawn before the first
// check, so a failing audit leaves auditRng past all auditSampleSize
// draws; the source is not checkpointed and decides nothing but which
// nodes are sampled.
func (nw *Network) Audit(mode AuditMode) error {
	switch mode {
	case AuditOff:
		return nil
	case AuditFull:
		return nw.CheckInvariants()
	}
	if err := nw.st.checkCoherence(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if int64(nw.Size()) > nw.z.P() {
		return fmt.Errorf("audit: n=%d exceeds p=%d", nw.Size(), nw.z.P())
	}
	list := nw.auditList[:0]
	for _, u := range nw.st.dirtyList {
		su, ok := nw.real.SlotOf(u)
		if !ok {
			continue // deleted this step
		}
		list = append(list, mirrorEntry{u, su})
		if len(list) == auditDirtyCap {
			break
		}
	}
	for i := 0; i < auditSampleSize && len(nw.st.nodeList) > 0; i++ {
		list = append(list, nw.st.sample(nw.auditRng))
	}
	nw.auditList = list
	nw.warmAudit(list)
	for _, e := range list {
		if err := nw.checkNodeAt(e.id, e.slot); err != nil {
			return err
		}
	}
	return nil
}

// warmAudit touches the cells the node checks of list will read, one
// level of the checks' dependency chains at a time across the whole
// list, so the misses of different nodes overlap instead of queuing:
//
//  1. each node's row, its mirror cell nodeList[pos], its Sim run,
//     simOf[x] and inv[x] for each vertex x, and the head of its arena
//     run;
//  2. simOf[inv[x]], the far end of each chord wantRow follows.
//
// Without a view the checks read neither the arena nor wantRow's chord
// ends, so only level 1's row, mirror cell and Sim run are touched, and
// simOf[x] and simSlot[x] for each vertex x.
//
// Touching only the rows and graph records, as a level of its own,
// does not pay now that one row holds all of a node's hot fields:
// without it durable-full's insert p50 read 10.03 against 10.01 µs
// (medians of 4 alternating pairs on a 2-CPU Xeon VM), while dropping
// either level above raised it by 0.6–1.1 µs in every pair.
//
// It reads only cells checkNodeAt reads, behind the same guards (a slot
// out of range, taken from a corrupted mirror entry, is one the check
// reports without reading its row; a mirror position out of range is
// one it reports missing), writes nothing but warmSink, and never
// fails: the checks that follow decide.
//
//dexvet:noalloc
func (nw *Network) warmAudit(list []mirrorEntry) {
	st, sink, rows := &nw.st, 0, nw.viewKept
	for _, e := range list {
		if uint(e.slot) >= uint(len(st.rows)) {
			continue
		}
		if i := st.rows[e.slot].pos; i >= 0 && int(i) < len(st.nodeList) {
			sink += int(st.nodeList[i].slot)
		}
		if !rows {
			for _, x := range st.setAt(e.slot, false) {
				sink += int(nw.simOf[x]) + int(nw.simSlot[x])
			}
			continue
		}
		for _, x := range st.setAt(e.slot, false) {
			sink += int(nw.simOf[x]) + int(nw.z.Inv(Vertex(x)))
		}
		if run := nw.real.RunAt(e.slot); len(run) > 0 {
			sink += int(run[0].V)
		}
	}
	if !rows {
		nw.warmSink = sink
		return
	}
	stag := nw.stag
	for _, e := range list {
		if uint(e.slot) >= uint(len(st.rows)) {
			continue
		}
		for _, x := range st.setAt(e.slot, false) {
			if t := nw.z.Inv(Vertex(x)); t != Vertex(x) && (stag == nil || !stag.droppedFlag[t]) {
				sink += int(nw.simOf[t])
			}
		}
	}
	nw.warmSink = sink
}

// CheckNode verifies every node-local invariant at u: mapping coherence
// (I2; without a view also simSlot, which derived rows and vertex moves
// read each vertex's simulator's slot from), load accounting and bounds
// (I3), the contraction row — u's real edges must equal the contraction
// of the virtual structure restricted to u (I4, node-locally; checked
// while a view is kept, since otherwise the overlay is that contraction
// by construction and has no stored row), stagger bookkeeping (I8), and
// the sampling mirror. It costs O(load(u)) = O(zeta), independent of n
// and p.
func (nw *Network) CheckNode(u NodeID) error {
	su, ok := nw.real.SlotOf(u)
	if !ok {
		return fmt.Errorf("audit: unknown node %d", u)
	}
	return nw.checkNodeAt(u, su)
}

// checkNodeAt is CheckNode for node u at slot su, which comes either
// from the slot table or from a sampling-mirror entry: the mirror must
// list exactly (u, su), or the check fails before it reads su's row.
// The contraction row is checked without sorting: every cell of u's
// arena run must occur in wantRow's unsorted expected row exactly its
// multiplicity times, the non-self multiplicities must add up to the
// row's length, and the self cell must carry exactly the expected
// loops. Together these are multiset equality. Only a failing match
// sorts, in rowMismatch, to name the mismatch.
//
//dexvet:noalloc
func (nw *Network) checkNodeAt(u NodeID, su int32) error {
	if !nw.st.mirrorHolds(u, su) {
		return nw.mirrorError(u)
	}
	sim := nw.st.setAt(su, false)
	derived := !nw.viewKept
	for _, x := range sim {
		if nw.simOf[x] != u {
			return auditErrorf("audit: Sim(%d) contains %d owned by %d", int64(u), int64(x), int64(nw.simOf[x]))
		}
		if derived && nw.simSlot[x] != su {
			return auditErrorf("audit: simSlot[%d] = %d, but its simulator %d is at slot %d", int64(x), int64(nw.simSlot[x]), int64(u), int64(su))
		}
	}
	want := len(sim)
	s := nw.stag
	if s != nil {
		newSim := nw.st.setAt(su, true)
		for _, y := range newSim {
			if s.newSimOf[y] != u {
				return auditErrorf("audit: NewSim(%d) contains %d owned by %d", int64(u), int64(y), int64(s.newSimOf[y]))
			}
		}
		want += len(newSim)
		unproc, proj := s.unprocessed(sim)
		if got := nw.st.unprocOldAt(su); got != unproc {
			return auditErrorf("audit: unprocOld(%d) = %d, want %d", int64(u), int64(got), int64(unproc))
		}
		if got := nw.st.effNewAt(su); got != proj+len(newSim) {
			return auditErrorf("audit: effNew(%d) = %d, want %d+%d", int64(u), int64(got), int64(proj), int64(len(newSim)))
		}
	}
	if got := nw.st.loadAt(su); got != want {
		return auditErrorf("audit: load(%d) = %d, want %d", int64(u), int64(got), int64(want))
	}
	if want < 1 {
		return auditErrorf("audit: node %d simulates nothing", int64(u))
	}
	maxLoad := 4 * nw.cfg.Zeta
	if s != nil {
		maxLoad = 8 * nw.cfg.Zeta
	}
	if want > maxLoad {
		return auditErrorf("audit: load(%d) = %d exceeds bound %d", int64(u), int64(want), int64(maxLoad))
	}
	if derived {
		return nil
	}
	row, loops, same := nw.wantRow(u, su)
	if same%2 != 0 {
		return auditErrorf("audit: node %d has odd self-incidence count %d", int64(u), int64(same))
	}
	loops += same / 2
	if !nw.rowMatches(u, su, row, loops) {
		return nw.rowMismatch(u, su, row, loops)
	}
	return nil
}

// rowMatches reports whether the arena run of node u at slot su is the
// multiset row plus loops self-loops, in one pass over the run: each
// non-self cell's id must occur in row exactly its multiplicity times,
// those multiplicities must add up to len(row) (so row holds no id
// without a cell), and the self cell, or 0 without one, must equal
// loops.
//
//dexvet:noalloc
func (nw *Network) rowMatches(u NodeID, su int32, row []NodeID, loops int) bool {
	sum, self := 0, 0
	for _, c := range nw.real.RunAt(su) {
		if c.V == u {
			self = int(c.M)
			continue
		}
		k := 0
		for _, w := range row {
			if w == c.V {
				k++
			}
		}
		if k != int(c.M) {
			return false
		}
		sum += k
	}
	return sum == len(row) && self == loops
}

// rowMismatch explains a failed rowMatches the way a sorted comparison
// of the run against the expected row would: a distinct-neighbor count
// mismatch first (u itself counts once when a loop is expected), else
// the smallest neighbor whose multiplicity differs. It runs on the
// failing path only, so sorting the row here costs the passing checks
// nothing.
func (nw *Network) rowMismatch(u NodeID, su int32, row []NodeID, loops int) error {
	slices.Sort(row)
	distinct := 0
	if loops > 0 {
		distinct = 1
	}
	for i := range row {
		if i == 0 || row[i] != row[i-1] {
			distinct++
		}
	}
	bad, badGot, badWant := NodeID(0), 0, -1
	run := nw.real.RunAt(su)
	for _, c := range run {
		exp := loops
		if c.V != u {
			lo, _ := slices.BinarySearch(row, c.V)
			hi := lo
			for hi < len(row) && row[hi] == c.V {
				hi++
			}
			exp = hi - lo
		}
		if int(c.M) != exp && badWant < 0 {
			bad, badGot, badWant = c.V, int(c.M), exp
		}
	}
	if len(run) != distinct {
		return auditErrorf("audit: node %d has %d distinct real neighbors, contraction wants %d", int64(u), int64(len(run)), int64(distinct))
	}
	return auditErrorf("audit: edge {%d,%d} multiplicity %d, contraction wants %d", int64(u), int64(bad), int64(badGot), int64(badWant))
}

// mirrorError explains a node check that found no mirror entry (u, s)
// for the slot it was given. u is re-resolved here, on the failing path
// only: an id the slot table does not hold is unknown, a live one is
// missing from the mirror.
func (nw *Network) mirrorError(u NodeID) error {
	if !nw.st.has(u) {
		return fmt.Errorf("audit: unknown node %d", u)
	}
	return auditErrorf("audit: node %d missing from sampling mirror", int64(u))
}

// auditErrorf formats a node-check failure. The checks are
// //dexvet:noalloc and pass plain integers; boxing them for fmt happens
// here, on the failing path only.
func auditErrorf(format string, args ...int64) error {
	a := make([]any, len(args))
	for i, v := range args {
		a[i] = v
	}
	return fmt.Errorf(format, a...)
}

// wantRow builds the expected real adjacency row of node u at live slot
// su — the contraction of the virtual structure restricted to edges
// incident to u — in O(load(u)) time by enumerating the edge slots of
// u's own vertices (old cycle, and, mid-rebuild, generated new vertices
// plus the intermediate edges anchored at u's unprocessed old
// vertices). row holds the far node of every incidence that leaves u,
// unsorted, so a neighbor appears once per unit of multiplicity; it
// lives in the network's audit scratch and is valid until the next
// call. Incidences with both ends at u are counted apart: loops are
// virtual self-loops, enumerated once, and same are the non-loop
// virtual edges with both endpoints at u, which are enumerated from
// both sides (so same is even on a coherent mapping, and each pair is
// one real self-loop). The rules mirror contractionEdges exactly, which
// the differential tests enforce.
//
//dexvet:noalloc
func (nw *Network) wantRow(u NodeID, su int32) (row []NodeID, loops, same int) {
	return nw.gatherRow(u, su, false)
}

// gatherRow is wantRow, and with slots set it also fills nw.rowSlots in
// step with row: the far node's slot where the mapping holds it
// (simSlot, for the current cycle's edges), -1 where it does not (the
// new cycle's, mid-rebuild).
//
//dexvet:noalloc
func (nw *Network) gatherRow(u NodeID, su int32, slots bool) (row []NodeID, loops, same int) {
	s := nw.stag
	row, rs := nw.auditRow[:0], nw.rowSlots[:0]
	for _, xc := range nw.st.setAt(su, false) {
		x := Vertex(xc)
		for _, t := range nw.z.NeighborSlots(x) {
			if t == x {
				loops++ // chord self-loop of the old cycle
				continue
			}
			if s != nil && s.droppedFlag[t] {
				continue
			}
			if v := nw.simOf[t]; v == u {
				same++
			} else {
				row = append(row, v)
				if slots {
					rs = append(rs, nw.simSlot[t])
				}
			}
		}
	}
	if s != nil {
		far := func(v NodeID) {
			if v == u {
				same++
			} else {
				row = append(row, v)
			}
		}
		for _, yc := range nw.st.setAt(su, true) {
			y := Vertex(yc)
			far(nw.newEdgeEnd(s.zNew.Succ(y))) // successor edge, owned by y
			if yp := s.zNew.Pred(y); s.newSimOf[yp] >= 0 {
				far(s.newSimOf[yp]) // predecessor's successor edge
			}
			c := s.zNew.Inv(y)
			switch {
			case c == y:
				loops++ // chord self-loop, owned by y
			case y < c:
				far(nw.newEdgeEnd(c)) // chord owned by the smaller endpoint y
			case s.newSimOf[c] >= 0:
				far(s.newSimOf[c]) // chord owned by generated c
			}
		}
		for _, x := range nw.st.setAt(su, false) {
			if s.processedFlag[x] {
				continue // pending edges are keyed by unprocessed vertices (I8)
			}
			for _, pe := range s.pending[Vertex(x)] {
				far(s.newSimOf[pe.src]) // intermediate edges anchored at u
			}
		}
		for slots && len(rs) < len(row) {
			rs = append(rs, -1) // a new-cycle end: its slot is not in simSlot
		}
	}
	nw.auditRow, nw.rowSlots = row, rs
	return row, loops, same
}

// newEdgeEnd returns the node on which the new-cycle edge to t lands
// mid-rebuild: t's simulator once t is generated, else the simulator of
// the old vertex that will generate t (an intermediate edge).
func (nw *Network) newEdgeEnd(t Vertex) NodeID {
	s := nw.stag
	if v := s.newSimOf[t]; v >= 0 {
		return v
	}
	return nw.simOf[s.ownerOld(t)]
}

// RecomputeGraph rebuilds the real overlay from the virtual structure
// from scratch and returns it: the full-rebuild oracle the differential
// tests and benchmarks compare the incrementally maintained graph
// against. It never mutates the network.
func (nw *Network) RecomputeGraph() *graph.Graph { return nw.expectedRealGraph() }

// expectedRealGraph recomputes the contraction of the current virtual
// structure from scratch (ground truth for I4).
func (nw *Network) expectedRealGraph() *graph.Graph {
	g := graph.New()
	for _, e := range nw.st.nodeList {
		g.AddNode(e.id)
	}
	nw.contractionEdges(func(a, b NodeID) bool {
		g.AddEdge(a, b)
		return true
	})
	return g
}

// contractionEdges calls edge(a, b) once for each edge of the current
// virtual structure, a and b the nodes simulating its two ends, and
// stops early if edge returns false. The edges are the old cycle's
// successor and chord edges between vertices a phase-2 rebuild has not
// dropped (a chord self-loop once) and, mid-rebuild, each generated new
// vertex's successor edge and the chord it owns as the smaller
// endpoint, each landing through newEdgeEnd. Their contraction under Phi
// is the overlay I4 requires. The rules live here alone:
// expectedRealGraph (the I4 oracle) and RestoreNetwork (which re-derives
// a checkpoint's overlay) both enumerate them through this function, and
// wantRow is their node-local form.
func (nw *Network) contractionEdges(edge func(a, b NodeID) bool) {
	s := nw.stag
	p := nw.z.P()
	aliveOld := func(x Vertex) bool {
		return s == nil || !s.droppedFlag[x]
	}
	for x := int64(0); x < p; x++ {
		if !aliveOld(x) {
			continue
		}
		if t := nw.z.Succ(x); aliveOld(t) && !edge(nw.simOf[x], nw.simOf[t]) {
			return
		}
		if t := nw.z.Inv(x); t >= x && aliveOld(t) && !edge(nw.simOf[x], nw.simOf[t]) {
			return
		}
	}
	if s == nil {
		return
	}
	pNew := s.zNew.P()
	for y := int64(0); y < pNew; y++ {
		u := s.newSimOf[y]
		if u < 0 {
			continue
		}
		// Successor edge, owned by y.
		if !edge(u, nw.newEdgeEnd(s.zNew.Succ(y))) {
			return
		}
		// Chord, owned by the smaller endpoint (self-loops own themselves).
		if t := s.zNew.Inv(y); t == y && !edge(u, u) || y < t && !edge(u, nw.newEdgeEnd(t)) {
			return
		}
	}
}

// graphsEqual compares node sets and edge multisets.
func graphsEqual(got, want *graph.Graph) error {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("node count %d != %d", got.NumNodes(), want.NumNodes())
	}
	for _, u := range want.Nodes() {
		if !got.HasNode(u) {
			return fmt.Errorf("missing node %d", u)
		}
	}
	if got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("edge count %d != %d", got.NumEdges(), want.NumEdges())
	}
	for _, e := range want.Edges() {
		if got.Multiplicity(e.U, e.V) != e.Mult {
			return fmt.Errorf("edge {%d,%d} multiplicity %d != %d",
				e.U, e.V, got.Multiplicity(e.U, e.V), e.Mult)
		}
	}
	return nil
}
