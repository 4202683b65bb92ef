package graph

import (
	"fmt"

	"repro/internal/wire"
)

// codecVersion is the slot-table snapshot format. Bump when the field
// sequence below changes; DecodeBinary rejects versions it does not know.
const codecVersion = 1

// AppendBinary serializes the graph — slot table, free-slot stack,
// epoch, and every distinct edge — onto enc. The encoding is exact, not
// merely isomorphic: slot numbering, the stale ids parked in dead slots,
// and the LIFO order of the free-slot stack all round-trip, so a decoded
// graph assigns future slots identically to the original. That is what
// lets slot-indexed side tables (the engine's columnar store) resume
// byte-for-byte after a restore. Arena layout (run offsets, free lists)
// is deliberately not serialized: adjacency content is rebuilt via
// AddEdgeMult and the arena repacks itself, since no observable behavior
// depends on pool offsets.
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
	// Distinct edges, each once with multiplicity, in slot order. Slot
	// order (not sorted-ID order) keeps encoding O(cells) with no sort.
	enc.Uvarint(uint64(g.distinctEdges()))
	for s, id := range g.ids {
		if !g.liveAt(s) {
			continue
		}
		r := g.recs[s]
		for i := r.off; i < r.off+r.n; i++ {
			if g.pool[i].v < id {
				continue // emitted from the smaller endpoint's run
			}
			enc.Varint(int64(id))
			enc.Varint(int64(g.pool[i].v))
			enc.Uvarint(uint64(g.pool[i].m))
		}
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

// distinctEdges counts distinct {u,v} pairs (self-loops once), in slot
// order.
func (g *Graph) distinctEdges() int {
	n := 0
	for s, id := range g.ids {
		if !g.liveAt(s) {
			continue
		}
		r := g.recs[s]
		for i := r.off; i < r.off+r.n; i++ {
			if g.pool[i].v >= id {
				n++
			}
		}
	}
	return n
}

// DecodeBinary rebuilds a graph serialized by AppendBinary into g, which
// must be empty. Slot hooks already registered on g fire for each live
// slot in ascending slot order — exactly the order a caller's columnar
// mirror needs to re-grow its columns — and never for dead slots. The
// decoded graph's slot table, free-slot stack, and epoch equal the
// original's; Validate holds on success.
func (g *Graph) DecodeBinary(dec *wire.Decoder) error {
	if len(g.ids) != 0 || len(g.index) != 0 {
		return fmt.Errorf("graph: DecodeBinary target is not empty")
	}
	if v := dec.Uvarint(); dec.Err() == nil && v != codecVersion {
		return fmt.Errorf("graph: unknown snapshot version %d", v)
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
	g.epoch = dec.U64()
	if dec.Err() != nil {
		return dec.Err()
	}
	return g.Validate()
}
