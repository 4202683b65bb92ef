package core

import "fmt"

// Insert handles an adversarial insertion (Algorithm 4.2): the adversary
// creates node id and attaches it to the existing node attach. DEX then
// finds a spare virtual vertex via random walks (type-1) or rebuilds the
// virtual graph (type-2) and assigns the new node at least one vertex.
// Node ids are non-negative.
//
//dexvet:mutator
func (nw *Network) Insert(id, attach NodeID) error {
	if id < 0 {
		return fmt.Errorf("%w: %d", errNegativeID, id)
	}
	if nw.st.has(id) {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	as, ok := nw.real.SlotOf(attach)
	if !ok {
		return fmt.Errorf("%w: attach point %d", ErrUnknownNode, attach)
	}
	nw.beginStep(OpInsert, id)
	// The adversary wires u to v; insertOneOfBatch bootstraps the node
	// with that temporary edge (dropped later unless required by the
	// virtual graph, Alg 4.2 line 3) and runs the recovery ladder — the
	// identical sequence a batch member goes through. Insertion deletes
	// no node, so attach's slot holds to the end of the step.
	nw.insertOneOfBatch(InsertSpec{ID: id, Attach: attach}, as)
	nw.afterRecovery(as)
	nw.endStep()
	return nil
}

// recoverInsert runs the walk/retry/type-2 ladder for an insertion.
// Both endpoint slots arrive from insertOneOfBatch (id's from its own
// bootstrap, attach's resolved once for the whole ladder — insertion
// never deletes nodes, so both survive every retry).
func (nw *Network) recoverInsert(id, attach NodeID, idSlot, attachSlot int32) {
	stop := nw.insertStop(id)
	for attempt := 0; attempt < nw.cfg.WalkRetryLimit; attempt++ {
		res := nw.runWalkAt(attach, attachSlot, id, stop)
		if res.Hit {
			if attempt == 0 && res.Steps == 0 && nw.stag == nil {
				nw.fastInserts++
			}
			nw.donateVertexTo(res.End, res.EndSlot, id, idSlot)
			return
		}
		nw.step.WalkRetries++
		if nw.cfg.Mode == Staggered {
			// Ask the coordinator (Alg 4.7 line 8): one round trip of
			// shortest-path control messages.
			nw.chargeCoordinatorNotify(attachSlot)
			if nw.stag == nil && float64(nw.nSpare) < 3*nw.cfg.Theta*float64(nw.Size()) {
				if nw.startStagger(inflateDir) {
					nw.step.Recovery = RecoveryInflate
					nw.step.StaggerStarted = true
					stop = nw.insertStop(id) // predicates change under staggering
				}
			}
			continue
		}
		// Simplified mode: flood computeSpare (Alg 4.4), then decide.
		// Its count, u != id && load(u) >= 2, is steadyInsertStop with
		// stopExclude = id, as insertStop armed it for this ladder.
		agg := nw.flood.AggregateAt(nw.observe(), attach, attachSlot, nw.steadyInsertStop)
		nw.step.Rounds += agg.Rounds
		nw.step.Messages += agg.Messages
		nw.step.Floods++
		if float64(agg.Sum) < nw.cfg.Theta*float64(nw.Size()) {
			nw.simplifiedInflate(attach, id)
			nw.step.Recovery = RecoveryInflate
			return
		}
	}
	// The retry cap exists only to surface implementation bugs; fall back
	// to a forced rebuild so the invariants survive even if it trips.
	nw.walkExhaustion++
	nw.simplifiedInflate(attach, id)
	nw.step.Recovery = RecoveryInflate
}

// insertStop returns the walk stop predicate for finding a donor for a
// newly inserted node. Every variant is prebuilt (no per-op closure):
// the excluded newborn flows through nw.stopExclude, and the rebuild
// phase through nw.stagPhase2 — both stable for the ladder's duration.
// Predicates read only slot-indexed store rows via the (id, slot) pairs
// the walk hands them, so evaluating one probes no id→slot map.
func (nw *Network) insertStop(id NodeID) func(NodeID, int32) bool {
	nw.stopExclude = id
	if nw.stag != nil {
		nw.stagPhase2 = nw.stag.phase == 2
		return nw.stagInsertStop
	}
	return nw.steadyInsertStop
}

// donateVertexTo moves one virtual vertex from donor, at slot ds, to the
// new node id at slot idSlot. In steady state any current-cycle vertex works
// (we pick the largest, so vertex 0 - the coordinator anchor - moves as
// rarely as possible).
func (nw *Network) donateVertexTo(donor NodeID, ds int32, id NodeID, idSlot int32) {
	if nw.stag != nil {
		nw.stag.donate(nw, donor, ds, id, idSlot)
		return
	}
	nw.moveVertexAt(nw.st.setMaxAt(ds, false), donor, ds, id, idSlot)
}

// Delete handles an adversarial deletion (Algorithm 4.3): node id leaves;
// a surviving neighbor v adopts its virtual vertices and then
// redistributes them via random walks to nodes in Low.
//
//dexvet:mutator
func (nw *Network) Delete(id NodeID) error {
	sid, ok := nw.real.SlotOf(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if nw.Size() <= 4 {
		return ErrTooSmall
	}
	nw.beginStep(OpDelete, id)

	// The survivor's slot holds to the end of the step: recovery moves
	// vertices and may rebuild the cycle, but deletes no other node.
	v, sv := nw.survivingNeighbor(id, sid)
	nw.adoptAndRedistribute(id, sid, v, sv)
	nw.afterRecovery(sv)
	nw.endStep()
	return nil
}

// adoptAndRedistribute removes node id, at slot sid, once v, at slot sv,
// has adopted every vertex id simulated (Alg 4.3 line 1: v attaches all
// of id's edges to itself), and then walks each adopted vertex on to a
// node in Low (redistributeFrom). Delete and each victim of DeleteBatch
// run it.
func (nw *Network) adoptAndRedistribute(id NodeID, sid int32, v NodeID, sv int32) {
	coordLost := nw.simOf[0] == id
	orphans := nw.vertexHoldings(sid)
	nw.warmAdoption(sid)
	for _, h := range orphans {
		nw.moveHolding(h, id, sid, v, sv)
	}
	if nw.degreeAt(id, sid) != 0 {
		panic("core: deleted node still has edges after adoption")
	}
	nw.dropLoadEntry(sid)
	nw.dropCached(sid)
	nw.st.removeNode(id, sid)
	if coordLost {
		// Neighbors transfer the replicated coordinator state to the new
		// simulator of vertex 0 (Alg 4.7 line 2): O(1) messages.
		nw.step.Messages += 2
		nw.step.Rounds++
	}
	nw.redistributeFrom(v, sv, orphans)
}

// warmAdoption touches, ahead of an adoption, the view cells its edge
// edits land in, while a view is kept (without one an adoption edits no
// adjacency). Each edit joins two of the victim at slot s, the survivor
// and the victim's other neighbors, and the survivor is a neighbor too,
// so every one of them reads and writes the graph records and runs of
// the victim's neighbors. The first pass over the victim's run touches
// each neighbor's record, the second each neighbor's run head, so the
// misses of different neighbors overlap instead of queuing one move at
// a time. It reads nothing the moves do not read and writes only
// warmSink.
//
//dexvet:noalloc
func (nw *Network) warmAdoption(s int32) {
	if !nw.viewKept {
		return
	}
	sink, run := 0, nw.real.RunAt(s)
	for _, c := range run {
		sink += nw.real.DistinctDegreeAt(c.S)
	}
	for _, c := range run {
		if far := nw.real.RunAt(c.S); len(far) > 0 {
			sink += int(far[0].V)
		}
	}
	nw.warmSink = sink
}

// survivingNeighbor picks the smallest distinct neighbor of node u at
// slot s and returns it with its slot.
func (nw *Network) survivingNeighbor(u NodeID, s int32) (NodeID, int32) {
	found, fs := nw.smallestNeighbor(u, s, nil)
	if found < 0 {
		panic("core: node has no surviving neighbor")
	}
	return found, fs
}

// holding identifies one virtual vertex a node simulates, in either the
// current cycle or (during staggering) the next one.
type holding struct {
	x     Vertex
	isNew bool
}

// vertexHoldings lists everything the node at slot s simulates,
// deterministically (ascending per cycle; the store hands both runs back
// sorted). The returned slice aliases a per-network scratch buffer — it
// is valid until the next vertexHoldings call, which the strictly
// sequential delete/redistribute flow guarantees is after its last use.
func (nw *Network) vertexHoldings(s int32) []holding {
	hs := nw.holdScratch[:0]
	for _, x := range nw.st.setAt(s, false) {
		hs = append(hs, holding{x: Vertex(x)})
	}
	if nw.stag != nil {
		for _, y := range nw.st.setAt(s, true) {
			hs = append(hs, holding{x: Vertex(y), isNew: true})
		}
	}
	nw.holdScratch = hs
	return hs
}

// moveHolding moves holding h from its simulator from, at slot sf, to
// node to at slot sto.
func (nw *Network) moveHolding(h holding, from NodeID, sf int32, to NodeID, sto int32) {
	if h.isNew {
		nw.moveNewVertex(h.x, from, sf, to, sto)
	} else {
		nw.moveVertexAt(h.x, from, sf, to, sto)
	}
}

// redistributeFrom walks each vertex v (at slot sv) adopted from a
// deleted node to a node in Low (Alg 4.3 lines 2-5), falling back to
// type-2 deflation per the paper.
func (nw *Network) redistributeFrom(v NodeID, sv int32, orphans []holding) {
	nw.pinned = sv // every walk below leaves from v (see rowCache)
	for _, h := range orphans {
		if nw.redistributeOne(v, sv, h) {
			break
		}
	}
	nw.pinned = -1
}

// redistributeOne runs the full walk/retry/type-2 ladder for a single
// holding adopted by v at slot sv. It reports true when a one-step
// type-2 rebuild fired (the rebuild re-homes every remaining orphan, so
// the caller stops).
func (nw *Network) redistributeOne(v NodeID, sv int32, h holding) bool {
	stop := nw.holdingStop(h)
	placed := false
	for attempt := 0; attempt < nw.cfg.WalkRetryLimit; attempt++ {
		res := nw.runWalkAt(v, sv, -1, stop)
		if res.Hit {
			if res.End != v {
				nw.moveHolding(h, v, sv, res.End, res.EndSlot)
			}
			placed = true
			break
		}
		nw.step.WalkRetries++
		if nw.cfg.Mode == Staggered {
			nw.chargeCoordinatorNotify(sv)
			if nw.stag == nil && float64(nw.nLow) < 3*nw.cfg.Theta*float64(nw.Size()) {
				if nw.startStagger(deflateDir) {
					nw.step.Recovery = RecoveryDeflate
					nw.step.StaggerStarted = true
					stop = nw.holdingStop(h)
				}
			}
			continue
		}
		// Simplified mode: flood computeLow (Alg 4.4), whose count,
		// load(u) <= 2*zeta, is steadyLowStop.
		agg := nw.flood.AggregateAt(nw.observe(), v, sv, nw.steadyLowStop)
		nw.step.Rounds += agg.Rounds
		nw.step.Messages += agg.Messages
		nw.step.Floods++
		if float64(agg.Sum) < nw.cfg.Theta*float64(nw.Size()) {
			if _, ok := nw.deflationFor(false); ok {
				// simplifiedDeflate rebuilds the whole mapping; the
				// remaining orphans are re-homed by the rebuild itself.
				nw.simplifiedDeflate(v)
				nw.step.Recovery = RecoveryDeflate
				return true
			}
			// No admissible smaller cycle (pNew would undercut n): keep
			// walking; leaving the vertex at v is safe if all retries miss.
		}
	}
	if !placed {
		nw.walkExhaustion++
		// Leaving the vertex at v is always safe (v adopted it); load
		// bounds are restored by the next rebuild.
	}
	return false
}

// holdingStop returns the stop predicate for redistributing one adopted
// holding. The acceptance thresholds are chosen so that every bound the
// paper states survives: recipients stay within Low's slack in steady
// state (Lemma 3(a)), within the 8*zeta union envelope during a rebuild,
// and - crucially - new-cycle holdings only land where the *new* count
// stays below 4*zeta, so the bound holds again the moment the rebuild
// commits (Lemma 9(a) -> Lemma 3(a) handover). Every variant is prebuilt
// in initTracking and reads only slot-indexed store state (loads, new
// counts, effNew) through the walk's (id, slot) pairs.
func (nw *Network) holdingStop(h holding) func(NodeID, int32) bool {
	s := nw.stag
	if s == nil {
		return nw.steadyLowStop // load(u) <= 2*zeta
	}
	if h.isNew {
		return nw.holdNewStop // |NewSim(u)| < 4*zeta && load(u) < 8*zeta-1
	}
	if s.dir == inflateDir {
		if s.phase == 1 {
			// The paper proves |Low| >= theta*n throughout a staggered
			// inflation; the standard threshold applies and the cloud
			// overflow is shed when the vertex is processed.
			return nw.steadyLowStop
		}
		// Inflate phase 2: the old vertex is about to be dropped anyway.
		return nw.inflateP2Stop // load(u) <= 6*zeta
	}
	// Deflation: an old vertex may carry a dominator, so also require
	// headroom in the projected new load.
	return nw.deflateHoldStop // load(u) <= 6*zeta && effNew(u) < 4*zeta
}

// afterRecovery performs the end-of-step bookkeeping shared by insert and
// delete: the coordinator counter notification from the reporting node
// at slot rs, proactive threshold checks and one batch of staggered
// rebuild progress.
func (nw *Network) afterRecovery(rs int32) {
	nw.chargeCoordinatorNotify(rs)
	if nw.cfg.Mode == Staggered && nw.stag == nil {
		n := float64(nw.Size())
		if float64(nw.nSpare) < 3*nw.cfg.Theta*n {
			if nw.startStagger(inflateDir) {
				nw.step.StaggerStarted = true
				nw.step.Recovery = RecoveryInflate
			}
		} else if float64(nw.nLow) < 3*nw.cfg.Theta*n {
			if nw.startStagger(deflateDir) {
				nw.step.StaggerStarted = true
				nw.step.Recovery = RecoveryDeflate
			}
		}
	}
	if nw.stag != nil {
		nw.advanceStagger()
	}
}
