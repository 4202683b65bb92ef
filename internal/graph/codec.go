package graph

import (
	"fmt"

	"repro/internal/wire"
)

// codecVersion is the slot-table snapshot format. Bump when the field
// sequence below changes; DecodeBinary rejects versions it does not
// know. Version 1 also carried every distinct edge, between the free-slot
// stack and the epoch; version 2 dropped them, and DecodeBinary still
// reads both.
const codecVersion = 2

// AppendBinary serializes the graph's slot table — each slot's id and
// live flag, the free-slot stack, and the epoch — onto enc. The encoding
// is exact, not merely isomorphic: slot numbering, the stale ids parked
// in dead slots, and the LIFO order of the free-slot stack all
// round-trip, so a decoded graph assigns future slots identically to the
// original. That is what lets slot-indexed side tables (the engine's
// columnar store) resume byte-for-byte after a restore. Edges are not
// written: the owner of a graph it can derive (the DEX overlay is the
// contraction of the virtual cycle under the mapping) re-adds them after
// DecodeBinary and then puts the epoch back with SetEpoch. Arena layout
// (run offsets, free lists) is not serialized either, since no
// observable behavior depends on pool offsets.
func (g *Graph) AppendBinary(enc *wire.Encoder) {
	enc.Uvarint(codecVersion)
	enc.Uvarint(uint64(len(g.ids)))
	for s, id := range g.ids {
		enc.Varint(int64(id))
		enc.Bool(g.liveAt(s))
	}
	enc.Uvarint(uint64(len(g.freeSlots)))
	for _, s := range g.freeSlots {
		enc.Uvarint(uint64(s))
	}
	enc.U64(g.epoch)
}

// liveAt reports whether slot s holds a live node, not the stale id a
// freed slot keeps. It resolves the id through lookup, so the engine's
// dense ids cost an array read instead of a map probe.
func (g *Graph) liveAt(s int) bool {
	live, ok := g.lookup(g.ids[s])
	return ok && live == int32(s)
}

// SetEpoch sets the logical version Epoch reports. A caller that re-adds
// a decoded graph's edges itself (see AppendBinary) uses it afterwards to
// restore the epoch the encoded graph had, which those additions
// advanced.
func (g *Graph) SetEpoch(e uint64) { g.epoch = e }

// DecodeBinary rebuilds a graph serialized by AppendBinary into g, which
// must be empty. Slot hooks already registered on g fire for each live
// slot in ascending slot order — exactly the order a caller's columnar
// mirror needs to re-grow its columns — and never for dead slots. The
// decoded graph's slot table, free-slot stack, and epoch equal the
// original's. A version-2 stream leaves every node isolated; a version-1
// stream also restores the edges it carries. Validate holds on success.
func (g *Graph) DecodeBinary(dec *wire.Decoder) error {
	if len(g.ids) != 0 || len(g.index) != 0 {
		return fmt.Errorf("graph: DecodeBinary target is not empty")
	}
	version := dec.Uvarint()
	if dec.Err() == nil && version != 1 && version != codecVersion {
		return fmt.Errorf("graph: unknown snapshot version %d", version)
	}
	numSlots := dec.Uvarint()
	// Each slot costs at least 2 encoded bytes; reject corrupt counts
	// before allocating.
	if numSlots > uint64(dec.Remaining()) {
		return fmt.Errorf("graph: slot count %d exceeds input", numSlots)
	}
	g.ids = make([]NodeID, 0, numSlots)
	g.recs = make([]nodeRec, numSlots)
	for s := uint64(0); s < numSlots; s++ {
		id := NodeID(dec.Varint())
		live := dec.Bool()
		if dec.Err() != nil {
			return dec.Err()
		}
		g.ids = append(g.ids, id)
		if live {
			if _, dup := g.index[id]; dup {
				return fmt.Errorf("graph: node %d live in two slots", id)
			}
			g.index[id] = int32(s)
			g.denseSet(id, int32(s))
		}
	}
	if g.onSlotAssign != nil {
		for s, id := range g.ids {
			if g.liveAt(s) {
				g.onSlotAssign(id, int32(s))
			}
		}
	}
	nFree := dec.Uvarint()
	if nFree > numSlots {
		return fmt.Errorf("graph: free-slot count %d exceeds %d slots", nFree, numSlots)
	}
	for i := uint64(0); i < nFree; i++ {
		s := dec.Uvarint()
		if dec.Err() != nil {
			return dec.Err()
		}
		if s >= numSlots {
			return fmt.Errorf("graph: free slot %d out of range", s)
		}
		if g.liveAt(int(s)) {
			return fmt.Errorf("graph: slot %d both live and free", s)
		}
		g.freeSlots = append(g.freeSlots, int32(s))
	}
	if uint64(len(g.index))+nFree != numSlots {
		return fmt.Errorf("graph: %d live + %d free slots != %d total",
			len(g.index), nFree, numSlots)
	}
	if version == 1 {
		if err := g.decodeEdgesV1(dec); err != nil {
			return err
		}
	}
	g.epoch = dec.U64()
	if dec.Err() != nil {
		return dec.Err()
	}
	return g.Validate()
}

// decodeEdgesV1 reads the edge section of a version-1 stream: a count,
// then each distinct edge once as its endpoints and multiplicity.
func (g *Graph) decodeEdgesV1(dec *wire.Decoder) error {
	nEdges := dec.Uvarint()
	if nEdges > uint64(dec.Remaining()) {
		return fmt.Errorf("graph: edge count %d exceeds input", nEdges)
	}
	for i := uint64(0); i < nEdges; i++ {
		u := NodeID(dec.Varint())
		v := NodeID(dec.Varint())
		mult := dec.Uvarint()
		if dec.Err() != nil {
			return dec.Err()
		}
		// AddEdgeMult would silently create absent endpoints (allocating
		// slots and corrupting the free stack); reject them instead.
		if _, ok := g.index[u]; !ok {
			return fmt.Errorf("graph: edge endpoint %d not a live node", u)
		}
		if _, ok := g.index[v]; !ok {
			return fmt.Errorf("graph: edge endpoint %d not a live node", v)
		}
		if mult == 0 || mult > 1<<30 {
			return fmt.Errorf("graph: edge {%d,%d} multiplicity %d out of range", u, v, mult)
		}
		g.AddEdgeMult(u, v, int(mult))
	}
	return nil
}
