package core

import (
	"fmt"
	"slices"

	"repro/internal/pcycle"
)

// This file implements the staggered type-2 recovery of Section 4.4
// (Algorithms 4.7/4.8/4.9), which yields Theorem 1's worst-case bounds:
// instead of rebuilding the virtual graph in one step, the coordinator
// (simulator of vertex 0) triggers the rebuild early - at |Spare| < 3*theta*n
// for inflation, |Low| < 3*theta*n for deflation - and the rebuild is
// spread over Theta(n) subsequent steps, each step processing a constant
// batch of old vertices:
//
//   Phase 1 builds the next p-cycle alongside the current one. Processing
//   old vertex x generates its cloud (inflation) or its dominated new
//   vertex (deflation) at x's simulator, adds the new cycle/chord edges -
//   or *intermediate edges* anchored at the old vertex that will generate
//   a not-yet-existing endpoint - and rebalances overfull nodes with
//   random walks.
//
//   Phase 2 discards the old p-cycle batch by batch. Orphan rescue keeps
//   the mapping surjective if a node's last holding is dropped.
//
// Throughout, every node simulates at most 4*zeta vertices of each cycle
// (8*zeta total, Lemma 9(a)) and the union structure always contains one
// complete p-cycle, which lower-bounds the edge expansion and hence keeps
// the spectral gap constant (Lemma 9(b), via Cheeger both ways).
//
// Per-node rebuild state (NewSim sets, effNew, unprocOld) lives in the
// engine's slot-indexed store next to the steady-state fields (see
// store.go); this struct keeps only the schedule — frontier, flags,
// pending intermediate edges, and the contender queue.
//
// Deviation (documented in README.md): the paper creates intermediate edges for
// all three slots of a new vertex; we create each undirected new edge
// exactly once, owned canonically (a vertex owns its successor edge, and
// the chord is owned by its smaller endpoint). The union structure is
// sparser during the transition but the complete old (phase 1) or new
// (phase 2) cycle provides the expansion bound either way, and every
// final edge is present when the rebuild commits.

type stagDirection int

const (
	inflateDir stagDirection = iota
	deflateDir
)

func (d stagDirection) String() string {
	if d == deflateDir {
		return "deflate"
	}
	return "inflate"
}

// pendEdge records an intermediate edge: new vertex src is waiting for
// new vertex dst, which will be generated when the old vertex keying this
// entry is processed.
type pendEdge struct {
	src, dst Vertex
}

// stagger holds the in-flight rebuild schedule.
type stagger struct {
	dir  stagDirection
	inf  pcycle.Inflation
	def  pcycle.Deflation
	zNew *pcycle.Cycle

	phase    int // 1 = build new cycle, 2 = discard old cycle
	frontier Vertex
	batch    int64 // old vertices processed per step

	processedFlag []bool
	droppedFlag   []bool

	newSimOf []NodeID // Phi' (-1 = not generated yet)

	pending map[Vertex][]pendEdge // keyed by the generating old vertex

	contenders []NodeID // deflation: nodes awaiting a new vertex
}

func (s *stagger) processed(x Vertex) bool { return s.processedFlag[x] }
func (s *stagger) dropped(x Vertex) bool   { return s.droppedFlag[x] }

// projection returns how many new vertices old vertex x will generate.
func (s *stagger) projection(x Vertex) int {
	if s.dir == inflateDir {
		return s.inf.CloudSize(x)
	}
	if s.def.Dominates(x) {
		return 1
	}
	return 0
}

// unprocessed counts the old vertices of sim the frontier has not
// processed yet, and the new vertices processing them will generate:
// what unprocOld and effNew - |NewSim| must hold for sim's node.
func (s *stagger) unprocessed(sim []Vertex) (unproc, proj int) {
	for _, x := range sim {
		if !s.processedFlag[x] {
			unproc++
			proj += s.projection(x)
		}
	}
	return unproc, proj
}

// ownerOld returns the old vertex that generates new vertex t.
func (s *stagger) ownerOld(t Vertex) Vertex {
	if s.dir == inflateDir {
		return s.inf.OldOwner(t)
	}
	return s.def.DominatorOf(t)
}

// --- starting a staggered rebuild -------------------------------------------

// startStagger initializes the rebuild state (it does not process any
// batch yet; advanceStagger does one batch per step). Returns false if
// the virtual graph is too small to rebuild in the given direction —
// including a deflation whose admissible primes all sit below the node
// count (see deflationFor), which the seed implementation started
// anyway and then crashed resolving.
func (nw *Network) startStagger(dir stagDirection) bool {
	pOld := nw.z.P()
	s := &stagger{
		dir:     dir,
		phase:   1,
		pending: make(map[Vertex][]pendEdge),
	}
	var pNew int64
	switch dir {
	case inflateDir:
		inf, err := pcycle.NewInflation(pOld)
		if err != nil {
			return false
		}
		s.inf = inf
		pNew = inf.PNew
	case deflateDir:
		def, ok := nw.deflationFor(true)
		if !ok {
			return false // no admissible smaller cycle yet; try again as n shrinks
		}
		s.def = def
		pNew = def.PNew
	}
	z, err := pcycle.New(pNew)
	if err != nil {
		return false
	}
	s.zNew = z
	s.processedFlag = make([]bool, pOld)
	s.droppedFlag = make([]bool, pOld)
	s.newSimOf = make([]NodeID, pNew)
	for i := range s.newSimOf {
		s.newSimOf[i] = -1
	}
	// Each phase spans ~theta*n steps (the paper's schedule), so the
	// per-step batch is pOld/(theta*n): constant in n, O(1/theta^2) in the
	// rebuild parameter.
	steps := int64(nw.cfg.Theta * float64(nw.Size()))
	if steps < 1 {
		steps = 1
	}
	s.batch = (pOld + steps - 1) / steps
	for _, e := range nw.st.nodeList {
		unproc, proj := s.unprocessed(nw.st.setAt(e.slot, false))
		nw.st.addUnprocOldAt(e.slot, unproc)
		nw.st.addEffNewAt(e.slot, proj)
	}
	nw.stag = s
	// Coordinator locally computes the new prime and notifies the first
	// batch of simulators along virtual shortest paths.
	nw.step.Messages += nw.routeCharge()
	nw.step.Rounds += 2
	return true
}

// routeCharge is the hop budget for one shortest-path control message on
// the current virtual graph (2*ecc(0) bounds the diameter).
func (nw *Network) routeCharge() int { return nw.z.DiameterUpperBound() }

// --- per-step progress -------------------------------------------------------

// advanceStagger performs one step's batch of rebuild work
// (Algorithms 4.8/4.9 advance "when the adversary triggers the next
// step").
func (nw *Network) advanceStagger() {
	s := nw.stag
	nw.step.Rounds += nw.routeCharge() + 2 // batch activation + parallel edge setup
	nw.step.Messages += 2                  // coordinator hand-off bookkeeping
	if s.phase == 1 {
		end := s.frontier + s.batch
		if end > nw.z.P() {
			end = nw.z.P()
		}
		for x := s.frontier; x < end; x++ {
			nw.processOldVertex(x)
		}
		s.frontier = end
		nw.retryContenders(false)
		if s.frontier >= nw.z.P() {
			nw.retryContenders(true)
			if len(s.pending) != 0 {
				panic("core: unresolved intermediate edges at end of phase 1")
			}
			s.phase = 2
			s.frontier = 0
		}
		return
	}
	end := s.frontier + s.batch
	if end > nw.z.P() {
		end = nw.z.P()
	}
	for x := s.frontier; x < end; x++ {
		nw.dropOldVertex(x)
	}
	s.frontier = end
	if s.frontier >= nw.z.P() {
		nw.commitStagger()
	}
}

// finishStaggerNow drives the staggered rebuild to completion inside the
// current step (used when a forced one-step rebuild preempts it).
func (nw *Network) finishStaggerNow() {
	for nw.stag != nil {
		nw.advanceStagger()
	}
}

// processOldVertex runs Phase-1 work for one old vertex.
func (nw *Network) processOldVertex(x Vertex) {
	s := nw.stag
	if s.processedFlag[x] {
		return
	}
	u := nw.simOf[x]
	su := nw.st.slot(u)
	s.processedFlag[x] = true
	nw.st.addUnprocOldAt(su, -1)
	nw.st.markDirtyAt(u, su) // bookkeeping changed even when x generates nothing

	if s.dir == inflateDir {
		cloud := s.inf.Cloud(x)
		nw.st.addEffNewAt(su, -len(cloud)) // projection becomes actual below
		for _, y := range cloud {
			nw.assignNew(y, u, su)
		}
		nw.resolvePending(x)
		for _, y := range cloud {
			nw.createNewEdges(y, u, su)
		}
		nw.shedNewOverflow(u, su)
		return
	}

	// Deflation: x generates a new vertex only if it dominates its
	// deflation cloud.
	y := s.def.NewVertexOf(x)
	if s.def.DominatorOf(y) == x {
		nw.st.addEffNewAt(su, -1)
		nw.assignNew(y, u, su)
		nw.resolvePending(x)
		nw.createNewEdges(y, u, su)
	}
	if nw.st.unprocOldAt(su) == 0 && nw.st.setLenAt(su, true) == 0 {
		s.contenders = append(s.contenders, u)
	}
}

// assignNew places new vertex y at node u, at slot su (no edges yet).
func (nw *Network) assignNew(y Vertex, u NodeID, su int32) {
	nw.stag.newSimOf[y] = u
	nw.st.setAddAt(su, y, true)
	nw.st.addEffNewAt(su, 1)
	nw.bumpLoadAt(u, su, 1)
}

// resolvePending converts the intermediate edges anchored at old vertex x
// into their final form. Because clouds are generated at x's simulator,
// the real endpoints coincide and only the bookkeeping (plus one
// notification message each) changes.
func (nw *Network) resolvePending(x Vertex) {
	s := nw.stag
	for _, pe := range s.pending[x] {
		if s.newSimOf[pe.dst] < 0 {
			panic(fmt.Sprintf("core: pending edge resolved before %d generated", pe.dst))
		}
		nw.step.Messages++
	}
	delete(s.pending, x)
}

// createNewEdges adds the canonically-owned new-cycle edges of freshly
// generated vertex y, simulated by owner at slot so: its successor edge,
// and its chord when y is the smaller endpoint (chord self-loops at 0,
// 1, p-1 belong to y).
func (nw *Network) createNewEdges(y Vertex, owner NodeID, so int32) {
	s := nw.stag
	nw.linkNewEdge(y, s.zNew.Succ(y), owner, so, true)
	chord := s.zNew.Inv(y)
	if chord == y {
		nw.addRealEdgeAt(owner, so, owner, so)
		nw.step.Messages++
	} else if y < chord {
		nw.linkNewEdge(y, chord, owner, so, false)
	}
	// The predecessor edge and larger-endpoint chords are created (or
	// were created as intermediates) by their owners.
}

// linkNewEdge wires the undirected new edge {y, t}: directly when t is
// already generated, else as an intermediate edge to the simulator of the
// old vertex that will generate t.
func (nw *Network) linkNewEdge(y, t Vertex, owner NodeID, so int32, isCycleEdge bool) {
	s := nw.stag
	if s.newSimOf[t] >= 0 {
		nw.addRealEdgeAt(owner, so, s.newSimOf[t], -1)
	} else {
		x := s.ownerOld(t)
		nw.addRealEdgeAt(owner, so, nw.simOf[x], -1)
		s.pending[x] = append(s.pending[x], pendEdge{src: y, dst: t})
	}
	if isCycleEdge {
		nw.step.Messages += 2 // reachable via O(1) old-cycle hops
	} else {
		nw.step.Messages += nw.routeCharge() // routed along the old cycle
	}
}

// shedNewOverflow rebalances the new-cycle holdings of u, at slot su,
// while its effective new load exceeds 4*zeta (Alg 4.8 line 6):
// sequential random walks on the live overlay to nodes with effective
// new load < 4*zeta.
func (nw *Network) shedNewOverflow(u NodeID, su int32) {
	st := &nw.st
	zeta4 := 4 * nw.cfg.Zeta
	nw.shedExcl = u // parameterizes the prebuilt shedStop
	for st.effNewAt(su) > zeta4 && st.setLenAt(su, true) > 1 {
		placed := false
		for attempt := 0; attempt < nw.cfg.WalkRetryLimit; attempt++ {
			res := nw.runWalkAt(u, su, -1, nw.shedStop)
			if res.Hit {
				nw.moveNewVertex(st.setMaxAt(su, true), u, su, res.End, res.EndSlot)
				placed = true
				break
			}
			nw.step.WalkRetries++
		}
		if !placed {
			// Tolerated: Lemma 9(a) allows up to 8*zeta during staggering.
			nw.walkExhaustion++
			return
		}
	}
}

// retryContenders gives each waiting deflation contender one walk per
// step; with force set (end of Phase 1) it insists, falling back to a
// deterministic donor scan.
func (nw *Network) retryContenders(force bool) {
	s := nw.stag
	if len(s.contenders) == 0 {
		return
	}
	// The eligibility scan resolves each survivor's slot exactly once;
	// eligible ids and slots run struct-of-arrays (contendSlots) so the
	// walks need no further map probes. Slots stay valid for the whole
	// round: contender resolution moves vertices but never deletes nodes.
	eligible := s.contenders[:0]
	slots := nw.contendSlots[:0]
	for _, u := range s.contenders {
		sl, ok := nw.real.SlotOf(u)
		if !ok {
			continue // node deleted while waiting
		}
		if nw.st.setLenAt(sl, true) > 0 {
			continue // received a vertex meanwhile
		}
		eligible = append(eligible, u)
		slots = append(slots, sl)
	}
	nw.contendSlots = slots
	var still []NodeID
	for i, u := range eligible {
		if nw.contendWalk(u, slots[i], force) {
			continue
		}
		still = append(still, u)
	}
	s.contenders = still
	if force && len(s.contenders) > 0 {
		panic("core: unresolved contenders at end of phase 1")
	}
}

// contendStop is the contender donor predicate: donors must keep one
// vertex (the paper's "taken" reservation), hence newCount >= 2. It is
// prebuilt (serialContendStop, parameterized by nw.contendU) and reads
// only the store's new-count column.
func (nw *Network) contendStop(u NodeID) func(NodeID, int32) bool {
	nw.contendU = u
	return nw.serialContendStop
}

// contendWalk tries to fetch a spare new vertex for u (at slot su).
func (nw *Network) contendWalk(u NodeID, su int32, force bool) bool {
	stop := nw.contendStop(u)
	attempts := 1
	if force {
		attempts = nw.cfg.WalkRetryLimit
	}
	for i := 0; i < attempts; i++ {
		res := nw.runWalkAt(u, su, -1, stop)
		if res.Hit {
			nw.moveNewVertex(nw.st.setMaxAt(res.EndSlot, true), res.End, res.EndSlot, u, su)
			return true
		}
		nw.step.WalkRetries++
	}
	if !force {
		return false
	}
	nw.walkExhaustion++
	for _, w := range nw.real.Nodes() {
		if sw := nw.st.slot(w); w != u && nw.st.setLenAt(sw, true) >= 2 {
			nw.moveNewVertex(nw.st.setMaxAt(sw, true), w, sw, u, su)
			return true
		}
	}
	return false
}

// moveNewVertex transfers new-cycle vertex y from its simulator from, at
// slot sf, to node to at slot sto, moving each of its existing real
// edges: direct edges where both endpoints are generated, intermediate
// edges where y is the canonical owner and the target is not yet
// generated.
func (nw *Network) moveNewVertex(y Vertex, from NodeID, sf int32, to NodeID, sto int32) {
	s := nw.stag
	if from == to {
		return
	}
	type slotEdge struct {
		t       Vertex
		ownedBy bool // canonical owner is y
	}
	chord := s.zNew.Inv(y)
	slots := [3]slotEdge{
		{s.zNew.Pred(y), false},
		{s.zNew.Succ(y), true},
		{chord, y <= chord},
	}
	apply := func(at NodeID, sat int32, add bool) {
		for _, se := range slots {
			var other NodeID
			switch {
			case se.t == y:
				other = at // chord self-loop
			case s.newSimOf[se.t] >= 0:
				other = s.newSimOf[se.t]
			case se.ownedBy:
				other = nw.simOf[s.ownerOld(se.t)] // intermediate edge
			default:
				continue // edge not created yet (owner not generated)
			}
			if add {
				nw.addRealEdgeAt(at, sat, other, -1)
			} else {
				nw.removeRealEdgeAt(at, sat, other, -1)
			}
		}
	}
	apply(from, sf, false)
	nw.st.setRemoveAt(sf, y, true)
	nw.st.addEffNewAt(sf, -1)
	nw.bumpLoadAt(from, sf, -1)
	s.newSimOf[y] = to
	nw.st.setAddAt(sto, y, true)
	nw.st.addEffNewAt(sto, 1)
	nw.bumpLoadAt(to, sto, 1)
	apply(to, sto, true)
}

// dropOldVertex runs Phase-2 work for one old vertex: remove its
// remaining old edges and release it. If it is its simulator's last
// holding, the orphan rescue first fetches a new-cycle vertex so the
// mapping stays surjective.
func (nw *Network) dropOldVertex(x Vertex) {
	s := nw.stag
	if s.droppedFlag[x] {
		return
	}
	u := nw.simOf[x]
	su := nw.st.slot(u)
	if nw.st.loadAt(su) == 1 {
		nw.orphanRescue(u, su)
	}
	s.droppedFlag[x] = true
	for _, t := range nw.z.NeighborSlots(x) {
		if t == x {
			nw.removeRealEdgeAt(u, su, u, su)
		} else if !s.droppedFlag[t] {
			nw.removeRealEdgeAt(u, su, nw.simOf[t], -1)
		}
	}
	nw.st.setRemoveAt(su, x, false)
	nw.bumpLoadAt(u, su, -1)
}

// orphanRescue fetches a spare new-cycle vertex for a node, at slot su,
// about to lose its last holding. It runs while the node is still
// connected.
func (nw *Network) orphanRescue(u NodeID, su int32) {
	nw.orphanRescues++
	if !nw.contendWalk(u, su, true) {
		panic("core: orphan rescue found no donor")
	}
}

// commitStagger finalizes the rebuild: the new cycle becomes current.
func (nw *Network) commitStagger() {
	s := nw.stag
	// A node inserted in the current step can still be awaiting its first
	// vertex when a forced one-step rebuild drives the stagger to
	// completion (the walk-exhaustion fallback preempting an in-flight
	// rebuild). Re-home such nodes from donors before the old cycle
	// disappears so the mapping stays surjective (found by FuzzChurnTrace).
	var unassigned []NodeID
	for _, e := range nw.st.nodeList {
		if nw.st.setLenAt(e.slot, false) == 0 && nw.st.setLenAt(e.slot, true) == 0 {
			unassigned = append(unassigned, e.id)
		}
	}
	slices.Sort(unassigned)
	for _, u := range unassigned {
		nw.orphanRescue(u, nw.st.slot(u))
	}
	for _, e := range nw.st.nodeList {
		if nw.st.setLenAt(e.slot, false) != 0 {
			panic(fmt.Sprintf("core: node %d still holds old vertices at commit", e.id))
		}
		if nw.st.setLenAt(e.slot, true) == 0 {
			panic(fmt.Sprintf("core: node %d has no new vertices at commit", e.id))
		}
		nw.st.promoteNew(e.slot)
	}
	nw.z = s.zNew
	nw.simOf = s.newSimOf
	nw.resolveSimSlots()
	nw.refreshDist0()
	nw.stag = nil
	nw.step.StaggerFinished = true
	if nw.rebuildObserver != nil {
		nw.rebuildObserver(nw.z.P())
	}
}

// --- type-1 predicates and donations while staggering ------------------------

// The insertion donor predicate during a rebuild is the prebuilt
// nw.stagInsertStop (see initTracking), parameterized by nw.stopExclude
// and nw.stagPhase2; nw.insertStop selects and arms it.

// donate transfers one vertex from donor, at slot ds, to the freshly
// inserted id at slot idSlot, preferring newly generated vertices (Section
// 4.4.1: "we can simply assign one of the newly inflated vertices").
func (s *stagger) donate(nw *Network, donor NodeID, ds int32, id NodeID, idSlot int32) {
	if nw.st.setLenAt(ds, true) >= 2 {
		nw.moveNewVertex(nw.st.setMaxAt(ds, true), donor, ds, id, idSlot)
		return
	}
	// Unprocessed old vertex: the recipient will generate its cloud when
	// the frontier reaches it.
	var best Vertex = -1
	for _, x := range nw.st.setAt(ds, false) {
		if !s.processedFlag[x] {
			best = x // ascending: the last unprocessed vertex is the largest
		}
	}
	if best < 0 {
		panic("core: staggered donor has nothing to give")
	}
	nw.moveVertexAt(best, donor, ds, id, idSlot)
}

// DebugString summarizes the rebuild state (tests/examples).
func (s *stagger) DebugString() string {
	return fmt.Sprintf("%s phase=%d frontier=%d/%d pNew=%d pending=%d contenders=%d",
		s.dir, s.phase, s.frontier, len(s.processedFlag), s.zNew.P(), len(s.pending), len(s.contenders))
}

// RebuildDebug exposes the in-flight rebuild state description, or "".
func (nw *Network) RebuildDebug() string {
	if nw.stag == nil {
		return ""
	}
	return nw.stag.DebugString()
}
