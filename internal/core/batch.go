package core

import "fmt"

// This file implements Section 5: handling multiple insertions/deletions
// per adversarial step (Corollary 2). The adversary may insert or delete
// up to epsilon*n nodes at once, subject to the paper's conditions:
// at most a constant number of inserted nodes attach to any single
// existing node; deletions must leave the remainder graph connected and
// every deleted node must keep at least one surviving neighbor.
//
// The batch is recovered within a single step's metrics envelope. The
// members are processed through the same walk/type-2 ladder as single
// operations - costs simply accumulate, matching the paper's
// O(n log^2 n) messages / O(log^3 n) rounds per-batch budget, which the
// MULTI experiment verifies empirically.

// InsertSpec names one inserted node and its adversarial attach point.
type InsertSpec struct {
	ID     NodeID
	Attach NodeID
}

// maxAttachFanIn bounds how many batch members may attach to one node
// (the paper's "constant number" restriction).
const maxAttachFanIn = 8

// InsertBatch performs one adversarial step inserting all specs at once.
//
//dexvet:mutator
func (nw *Network) InsertBatch(specs []InsertSpec) error {
	if len(specs) == 0 {
		return nil
	}
	fanIn := make(map[NodeID]int)
	seen := make(map[NodeID]bool, len(specs))
	for _, s := range specs {
		if s.ID < 0 {
			return fmt.Errorf("%w: %d", errNegativeID, s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("%w: %d repeated in batch", ErrDuplicateID, s.ID)
		}
		seen[s.ID] = true
		if nw.st.has(s.ID) {
			return fmt.Errorf("%w: %d", ErrDuplicateID, s.ID)
		}
		if !nw.st.has(s.Attach) {
			return fmt.Errorf("%w: attach point %d", ErrUnknownNode, s.Attach)
		}
		fanIn[s.Attach]++
		if fanIn[s.Attach] > maxAttachFanIn {
			return fmt.Errorf("core: more than %d batch members attach to node %d", maxAttachFanIn, s.Attach)
		}
	}
	nw.beginStep(OpBatchInsert, specs[0].ID)
	for _, s := range specs {
		nw.insertOneOfBatch(s, nw.st.slot(s.Attach))
	}
	nw.afterRecovery(nw.st.slot(specs[0].Attach))
	nw.endStep()
	return nil
}

// insertOneOfBatch bootstraps one batch member (node + temporary attach
// edge) and runs its recovery ladder, with the attach point at slot
// attachSlot. The newborn's slot comes straight off its bootstrap, so
// the temporary edge, the load entry, and the donor's commit all run by
// slot. Slots are stable across everything between the two temp-edge
// mutations: the ladder moves vertices and may rebuild the virtual
// graph, but never deletes a node.
func (nw *Network) insertOneOfBatch(s InsertSpec, attachSlot int32) {
	if s.ID >= nw.nextID {
		nw.nextID = s.ID + 1
	}
	idSlot := nw.st.addNode(s.ID)
	nw.setLoadAt(s.ID, idSlot, 0, true)
	nw.addRealEdgeAt(s.ID, idSlot, s.Attach, attachSlot)
	nw.tmp = tempEdge{a: s.ID, b: s.Attach, sa: idSlot, sb: attachSlot, on: true}
	nw.recoverInsert(s.ID, s.Attach, idSlot, attachSlot)
	if nw.tmp.on { // else a one-step rebuild's commit dropped it already
		nw.removeRealEdgeAt(s.ID, idSlot, s.Attach, attachSlot)
		nw.tmp.on = false
	}
}

// DeleteBatch performs one adversarial step deleting all ids at once,
// enforcing Section 5's connectivity conditions.
//
//dexvet:mutator
func (nw *Network) DeleteBatch(ids []NodeID) error {
	if len(ids) == 0 {
		return nil
	}
	victim := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		if !nw.st.has(id) {
			return fmt.Errorf("%w: %d", ErrUnknownNode, id)
		}
		if victim[id] {
			return fmt.Errorf("core: %d repeated in batch", id)
		}
		victim[id] = true
	}
	if nw.Size()-len(ids) < 4 {
		return ErrTooSmall
	}
	// The adversary may only delete node sets whose removal leaves the
	// graph connected with a surviving neighbor per victim. Both checks
	// read the view while one is kept and derived rows otherwise, so
	// neither materializes a view.
	if !nw.remainderConnected(ids, victim) {
		return fmt.Errorf("core: batch deletion would disconnect the network")
	}
	for _, id := range ids {
		if v, _ := nw.smallestNeighbor(id, nw.st.slot(id), victim); v < 0 {
			return fmt.Errorf("core: victim %d has no surviving neighbor", id)
		}
	}

	nw.beginStep(OpBatchDelete, ids[0])
	for _, id := range ids {
		// Adoption by the smallest surviving non-victim neighbor.
		sid := nw.st.slot(id)
		v, sv := nw.smallestNeighbor(id, sid, victim)
		if v < 0 {
			// All direct neighbors were already deleted this batch; the
			// vertices were adopted along: pick any live node adjacent in
			// the virtual structure.
			v = nw.anySurvivor(victim)
			sv = nw.st.slot(v)
		}
		nw.adoptAndRedistribute(id, sid, v, sv)
	}
	nw.afterRecovery(nw.st.slot(nw.anySurvivor(nil)))
	nw.endStep()
	return nil
}

// remainderConnected reports whether the overlay stays connected once
// the distinct live nodes ids (the set victim) are removed. It runs a
// BFS from a surviving node, never entering a victim, on slot-indexed
// scratch the network keeps, over the view's runs while one is kept and
// else over each node's derived row (rowAt); the remainder is connected
// iff the BFS reaches every survivor.
func (nw *Network) remainderConnected(ids []NodeID, victim map[NodeID]bool) bool {
	n := nw.real.Slots()
	if len(nw.bfsSeen) < n {
		nw.bfsSeen = make([]bool, n)
	}
	seen := nw.bfsSeen[:n]
	clear(seen)
	for _, id := range ids {
		seen[nw.st.slot(id)] = true
	}
	queue := nw.bfsQueue[:0]
	for _, e := range nw.st.nodeList {
		if !victim[e.id] {
			seen[e.slot] = true
			queue = append(queue, e.slot)
			break
		}
	}
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		if nw.viewKept {
			for _, c := range nw.real.RunAt(s) {
				if !seen[c.S] {
					seen[c.S] = true
					queue = append(queue, c.S)
				}
			}
			continue
		}
		u, _ := nw.real.NodeAt(s)
		row := nw.rowAt(u, s)
		for j, vs := range nw.rowSlots {
			if vs < 0 {
				vs = nw.st.slot(row[j])
			}
			if !seen[vs] {
				seen[vs] = true
				queue = append(queue, vs)
			}
		}
	}
	nw.bfsQueue = queue
	return len(queue) == nw.Size()-len(ids)
}

// anySurvivor returns the smallest live node not in the exclusion set.
func (nw *Network) anySurvivor(excl map[NodeID]bool) NodeID {
	best := NodeID(-1)
	for _, e := range nw.st.nodeList {
		if excl != nil && excl[e.id] {
			continue
		}
		if best < 0 || e.id < best {
			best = e.id
		}
	}
	if best < 0 {
		panic("core: no survivor")
	}
	return best
}
