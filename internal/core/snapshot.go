package core

import (
	"fmt"
	"slices"

	"repro/internal/pcycle"
	"repro/internal/wire"
)

// This file makes the engine's full state serializable: AppendState
// writes everything a byte-identical continuation needs, RestoreNetwork
// rebuilds a live engine from it. The design leans on two facts the
// earlier PRs established:
//
//   - The engine's only RNG consumer is the walk-seed stream (walkSeed,
//     through drawU64), so RNG state is exactly (cfg.Seed, rngDraws): a
//     restore fast-forwards a fresh source, and the next walk sees the
//     same uint64 the uncrashed run would have.
//
//   - Most per-node state is recomputable from the mapping: load(u) =
//     |Sim(u)| + |NewSim(u)|, the |Spare|/|Low| counters rebuild through
//     setLoadAt, and unprocOld/effNew follow from the stagger flags by
//     the invariants audits already check.
//
//   - The overlay is the contraction of the virtual structure under the
//     mapping (invariant I4), so its edges are not written, and a restore
//     derives no overlay: like a fresh network, the restored one
//     materializes its view from Z(p), the mapping and the stagger state
//     only when something observes it (see Graph). The restore counts
//     the contraction's edges through contractionEdges and refuses a
//     mapping whose edges end at a node the slot table lacks. Only the
//     overlay's slot table is serialized (graph.AppendBinary): slot
//     numbering, the free-slot stack and the epoch, which the mapping
//     does not determine and which decide how the columnar store
//     addresses state, so they must survive a restore bit-for-bit.
//
// Not serialized (and provably unobservable between steps): the
// in-flight step scratch (nw.step, dirty set), the audit RNG (audits
// never mutate engine state), and the arena layouts on both sides
// (content, not placement, is what walks read).
//
// Two slots of the format are reserved, kept so that checkpoints
// written by engines that had a parallel walk pool still load:
//
//   - after the seed, a worker count: always written as 0, read and
//     range-checked, then ignored (width never changed outcomes);
//   - after rngDraws, a count k of walk seeds drawn ahead but not yet
//     used, followed by the k seeds: always written as 0. Such seeds
//     were always the last k draws of the stream, so a restore checks
//     them against the regenerated draws and positions the source at
//     rngDraws - k, where the next walk draws the first of them again.
//
// Version 1 of the format also stored every distinct overlay edge. It
// still loads: the stored edges are decoded and must equal the
// contraction the mapping derives, or the restore fails; they are kept
// as the view. The restored engine writes version 2 from its next
// checkpoint on.

// stateVersion is the engine snapshot format version AppendState
// writes. RestoreNetwork reads it and version 1.
const stateVersion = 2

// AppendBinary serializes the step metrics onto enc. The encoding is
// shared by engine checkpoints, WAL records, and the persistence
// layer's Merkle leaves.
func (m *StepMetrics) AppendBinary(enc *wire.Encoder) {
	enc.Varint(int64(m.Step))
	enc.Uvarint(uint64(m.Op))
	enc.Varint(int64(m.Target))
	enc.Varint(int64(m.Rounds))
	enc.Varint(int64(m.Messages))
	enc.Varint(int64(m.TopologyChanges))
	enc.Uvarint(uint64(m.Recovery))
	enc.Varint(int64(m.WalkRetries))
	enc.Varint(int64(m.Floods))
	enc.Bool(m.StaggerActive)
	enc.Bool(m.StaggerStarted)
	enc.Bool(m.StaggerFinished)
	enc.Varint(int64(m.N))
	enc.Varint(m.P)
}

// DecodeBinary reads a StepMetrics serialized by AppendBinary.
func (m *StepMetrics) DecodeBinary(dec *wire.Decoder) {
	m.Step = int(dec.Varint())
	m.Op = OpKind(dec.Uvarint())
	m.Target = NodeID(dec.Varint())
	m.Rounds = int(dec.Varint())
	m.Messages = int(dec.Varint())
	m.TopologyChanges = int(dec.Varint())
	m.Recovery = RecoveryKind(dec.Uvarint())
	m.WalkRetries = int(dec.Varint())
	m.Floods = int(dec.Varint())
	m.StaggerActive = dec.Bool()
	m.StaggerStarted = dec.Bool()
	m.StaggerFinished = dec.Bool()
	m.N = int(dec.Varint())
	m.P = dec.Varint()
}

func appendTotals(enc *wire.Encoder, t *Totals) {
	enc.Varint(int64(t.Steps))
	enc.Varint(t.Rounds)
	enc.Varint(t.Messages)
	enc.Varint(t.TopologyChanges)
	enc.Varint(int64(t.MaxRounds))
	enc.Varint(int64(t.MaxMessages))
	enc.Varint(int64(t.MaxTopologyChanges))
	enc.Varint(t.WalkRetries)
	enc.Varint(t.Floods)
	enc.Varint(int64(t.InflateEvents))
	enc.Varint(int64(t.DeflateEvents))
	enc.Varint(int64(t.StaggerStarts))
	enc.Varint(int64(t.StaggerFinishes))
}

func decodeTotals(dec *wire.Decoder) Totals {
	var t Totals
	t.Steps = int(dec.Varint())
	t.Rounds = dec.Varint()
	t.Messages = dec.Varint()
	t.TopologyChanges = dec.Varint()
	t.MaxRounds = int(dec.Varint())
	t.MaxMessages = int(dec.Varint())
	t.MaxTopologyChanges = int(dec.Varint())
	t.WalkRetries = dec.Varint()
	t.Floods = dec.Varint()
	t.InflateEvents = int(dec.Varint())
	t.DeflateEvents = int(dec.Varint())
	t.StaggerStarts = int(dec.Varint())
	t.StaggerFinishes = int(dec.Varint())
	return t
}

// appendBitset packs bits LSB-first into bytes (length known to both
// sides).
func appendBitset(enc *wire.Encoder, bits []bool) {
	var cur byte
	for i, b := range bits {
		if b {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			enc.Byte(cur)
			cur = 0
		}
	}
	if len(bits)&7 != 0 {
		enc.Byte(cur)
	}
}

func decodeBitset(dec *wire.Decoder, n int) []bool {
	bits := make([]bool, n)
	var cur byte
	for i := range bits {
		if i&7 == 0 {
			cur = dec.Byte()
		}
		bits[i] = cur&(1<<(i&7)) != 0
	}
	return bits
}

// AppendState serializes the engine's complete logical state onto enc.
// It must be called between operations (never from a callback). It
// fails on engines whose RNG was replaced via SetRNG: their stream
// position is not checkpointable.
func (nw *Network) AppendState(enc *wire.Encoder) error {
	if nw.rngReplaced {
		return fmt.Errorf("core: RNG replaced via SetRNG; stream position unknown")
	}
	enc.Uvarint(stateVersion)
	cfg := nw.cfg
	enc.Varint(int64(cfg.Zeta))
	enc.F64(cfg.Theta)
	enc.Varint(int64(cfg.WalkFactor))
	enc.Varint(int64(cfg.WalkRetryLimit))
	enc.Uvarint(uint64(cfg.Mode))
	enc.Varint(cfg.Seed)
	enc.Varint(0) // reserved: worker count
	enc.Varint(int64(cfg.HistoryCap))

	enc.Varint(nw.z.P())
	enc.Varint(int64(nw.nextID))
	enc.Varint(int64(nw.orphanRescues))
	enc.Varint(int64(nw.walkExhaustion))
	appendTotals(enc, &nw.totals)
	enc.Uvarint(uint64(len(nw.history)))
	for i := range nw.history {
		nw.history[i].AppendBinary(enc)
	}
	enc.U64(nw.rngDraws)
	enc.Uvarint(0) // reserved: seeds drawn ahead
	nw.real.AppendBinary(enc)
	enc.Uvarint(uint64(len(nw.st.nodeList)))
	for _, e := range nw.st.nodeList {
		enc.Varint(int64(e.id))
	}
	for _, u := range nw.simOf {
		enc.Varint(int64(u))
	}
	s := nw.stag
	enc.Bool(s != nil)
	if s == nil {
		return nil
	}
	enc.Uvarint(uint64(s.dir))
	enc.Varint(s.zNew.P())
	enc.Uvarint(uint64(s.phase))
	enc.Varint(s.frontier)
	enc.Varint(s.batch)
	appendBitset(enc, s.processedFlag)
	appendBitset(enc, s.droppedFlag)
	for _, u := range s.newSimOf {
		enc.Varint(int64(u))
	}
	// Pending intermediate edges, keyed by generating old vertex, in
	// ascending key order; each key's edge list keeps its append order
	// (moveVertexAt replays it in order).
	keys := make([]Vertex, 0, len(s.pending))
	for x := range s.pending {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, x := range keys {
		enc.Varint(x)
		pes := s.pending[x]
		enc.Uvarint(uint64(len(pes)))
		for _, pe := range pes {
			enc.Varint(pe.src)
			enc.Varint(pe.dst)
		}
	}
	enc.Uvarint(uint64(len(s.contenders)))
	for _, u := range s.contenders {
		enc.Varint(int64(u))
	}
	return nil
}

// RestoreNetwork rebuilds a live engine from a stream produced by
// AppendState, in version 2 or version 1 of the format. The restored
// engine continues byte-identically to the engine that was serialized:
// same History, mapping, loads, overlay, and walk-seed stream.
func RestoreNetwork(dec *wire.Decoder) (*Network, error) {
	version := dec.Uvarint()
	if dec.Err() == nil && version != 1 && version != stateVersion {
		return nil, fmt.Errorf("core: unknown state version %d", version)
	}
	var cfg Config
	cfg.Zeta = int(dec.Varint())
	cfg.Theta = dec.F64()
	cfg.WalkFactor = int(dec.Varint())
	cfg.WalkRetryLimit = int(dec.Varint())
	cfg.Mode = RecoveryMode(dec.Uvarint())
	cfg.Seed = dec.Varint()
	workers := dec.Varint()
	cfg.HistoryCap = int(dec.Varint())

	p := dec.Varint()
	nextID := NodeID(dec.Varint())
	orphanRescues := int(dec.Varint())
	walkExhaustion := int(dec.Varint())
	totals := decodeTotals(dec)
	nHist := dec.Uvarint()
	if nHist > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("core: history length %d exceeds input", nHist)
	}
	history := make([]StepMetrics, nHist)
	for i := range history {
		history[i].DecodeBinary(dec)
	}
	rngDraws := dec.U64()
	nAhead := dec.Uvarint()
	if nAhead*8 > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("core: pending seed count %d exceeds input", nAhead)
	}
	ahead := make([]uint64, nAhead)
	for i := range ahead {
		ahead[i] = dec.U64()
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if workers < 0 {
		return nil, fmt.Errorf("core: invalid restored worker count %d", workers)
	}
	if nAhead > rngDraws {
		return nil, fmt.Errorf("core: %d pending seeds exceed the %d RNG draws", nAhead, rngDraws)
	}
	// The mapping (at least a byte per vertex) follows, so a modulus the
	// input cannot hold is refused before pcycle.New allocates p
	// inverses for it.
	if uint64(p) > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("core: mapping length %d exceeds input", p)
	}
	z, err := pcycle.New(p)
	if err != nil {
		return nil, fmt.Errorf("core: restored modulus: %w", err)
	}
	nw := &Network{
		cfg:    cfg,
		rng:    newRng(cfg.Seed),
		z:      z,
		nextID: nextID,
	}
	nw.initTracking()
	if err := nw.real.DecodeBinary(dec); err != nil {
		return nil, fmt.Errorf("core: restoring overlay: %w", err)
	}
	nNodes := dec.Uvarint()
	if nNodes > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("core: node count %d exceeds input", nNodes)
	}
	nodeList := make([]NodeID, nNodes)
	for i := range nodeList {
		nodeList[i] = NodeID(dec.Varint())
		if nodeList[i] < 0 {
			return nil, fmt.Errorf("%w: node %d listed", errNegativeID, nodeList[i])
		}
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if int(nNodes) != nw.real.NumNodes() {
		return nil, fmt.Errorf("core: node list holds %d nodes, overlay %d", nNodes, nw.real.NumNodes())
	}
	if err := nw.st.restoreMirror(nodeList); err != nil {
		return nil, err
	}
	nw.simOf = make([]NodeID, p)
	for x := range nw.simOf {
		nw.simOf[x] = NodeID(dec.Varint())
	}
	var stag *stagger
	if dec.Bool() {
		s := &stagger{pending: make(map[Vertex][]pendEdge)}
		s.dir = stagDirection(dec.Uvarint())
		pNew := dec.Varint()
		s.phase = int(dec.Uvarint())
		s.frontier = dec.Varint()
		s.batch = dec.Varint()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if s.dir != inflateDir && s.dir != deflateDir {
			return nil, fmt.Errorf("core: bad stagger direction %d", s.dir)
		}
		if s.phase != 1 && s.phase != 2 {
			return nil, fmt.Errorf("core: bad stagger phase %d", s.phase)
		}
		if s.frontier < 0 || s.frontier > p || s.batch < 1 {
			return nil, fmt.Errorf("core: bad stagger schedule frontier=%d batch=%d", s.frontier, s.batch)
		}
		// An inflation grows the cycle and a deflation shrinks it; the
		// owner maps (newEdgeEnd) stay inside Z(p) only then. Like the
		// mapping, the new mapping takes at least a byte per vertex.
		if (s.dir == inflateDir) != (pNew > p) {
			return nil, fmt.Errorf("core: bad stagger moduli %d -> %d", p, pNew)
		}
		if uint64(pNew) > uint64(dec.Remaining()) {
			return nil, fmt.Errorf("core: new mapping length %d exceeds input", pNew)
		}
		// The in-flight maps are rebuilt as literals from the stored
		// primes: NewDeflationFloor's admissibility floor depended on the
		// node count when the rebuild started, so recomputing it here
		// could legally pick a different prime — the stored pNew is the
		// truth.
		if s.dir == inflateDir {
			s.inf = pcycle.Inflation{POld: p, PNew: pNew}
		} else {
			s.def = pcycle.Deflation{POld: p, PNew: pNew}
		}
		zNew, err := pcycle.New(pNew)
		if err != nil {
			return nil, fmt.Errorf("core: restored rebuild modulus: %w", err)
		}
		s.zNew = zNew
		if uint64(2*((p+7)/8)) > uint64(dec.Remaining()) {
			return nil, fmt.Errorf("core: stagger flags exceed input")
		}
		s.processedFlag = decodeBitset(dec, int(p))
		s.droppedFlag = decodeBitset(dec, int(p))
		s.newSimOf = make([]NodeID, pNew)
		for y := range s.newSimOf {
			s.newSimOf[y] = NodeID(dec.Varint())
		}
		nPend := dec.Uvarint()
		if nPend > uint64(dec.Remaining()) {
			return nil, fmt.Errorf("core: pending-edge count %d exceeds input", nPend)
		}
		for i := uint64(0); i < nPend; i++ {
			x := dec.Varint()
			nes := dec.Uvarint()
			if nes > uint64(dec.Remaining()) {
				return nil, fmt.Errorf("core: pending-edge list length %d exceeds input", nes)
			}
			if dec.Err() != nil {
				return nil, dec.Err()
			}
			if x < 0 || x >= p {
				return nil, fmt.Errorf("core: pending key %d out of range", x)
			}
			pes := make([]pendEdge, nes)
			for j := range pes {
				pes[j].src = dec.Varint()
				pes[j].dst = dec.Varint()
				if dec.Err() == nil && (pes[j].src < 0 || pes[j].src >= pNew ||
					pes[j].dst < 0 || pes[j].dst >= pNew) {
					return nil, fmt.Errorf("core: pending edge {%d,%d} out of range", pes[j].src, pes[j].dst)
				}
			}
			s.pending[x] = pes
		}
		nCont := dec.Uvarint()
		if nCont > uint64(dec.Remaining()) {
			return nil, fmt.Errorf("core: contender count %d exceeds input", nCont)
		}
		s.contenders = make([]NodeID, nCont)
		for i := range s.contenders {
			s.contenders[i] = NodeID(dec.Varint())
		}
		stag = s
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}

	// Rebuild the derived per-node state from the mapping. Sim sets:
	// every vertex of the current cycle lives at simOf[x], except those
	// already dropped by a phase-2 rebuild (dropOldVertex removes the set
	// entry but deliberately leaves simOf[x] stale).
	nw.simSlot, err = nw.restoreSets(nw.simOf, false, func(x int) bool { return stag != nil && stag.droppedFlag[x] })
	if err != nil {
		return nil, err
	}
	if stag != nil {
		if _, err := nw.restoreSets(stag.newSimOf, true, func(y int) bool { return stag.newSimOf[y] < 0 }); err != nil {
			return nil, err
		}
		// unprocOld / effNew follow from the flags by the engine's own
		// invariants: unprocOld(u) counts u's unprocessed holdings, and
		// effNew(u) = |NewSim(u)| + the projected clouds of those
		// holdings (what processing them will generate at u).
		for _, e := range nw.st.nodeList {
			unproc, proj := stag.unprocessed(nw.st.setAt(e.slot, false))
			nw.st.addUnprocOldAt(e.slot, unproc)
			nw.st.addEffNewAt(e.slot, proj+nw.st.setLenAt(e.slot, true))
		}
	}
	for _, e := range nw.st.nodeList {
		nw.setLoadAt(e.id, e.slot, nw.st.setLenAt(e.slot, false)+nw.st.setLenAt(e.slot, true), true)
	}
	nw.stag = stag
	if err := nw.countOverlay(); err != nil {
		return nil, err
	}
	if version == 1 {
		if err := graphsEqual(nw.real, nw.expectedRealGraph()); err != nil {
			return nil, fmt.Errorf("core: stored overlay is not the contraction of the mapping: %w", err)
		}
		nw.viewKept = true
		nw.simSlot = nil
	}
	nw.refreshDist0()

	// RNG: fast-forward a fresh source to the recorded stream position,
	// less any seeds drawn ahead, after checking those against the
	// draws they must have been.
	pos := rngDraws - nAhead
	for i := uint64(0); i < pos; i++ {
		nw.rng.Uint64()
	}
	if nAhead > 0 {
		check := newRng(cfg.Seed)
		for i := uint64(0); i < pos; i++ {
			check.Uint64()
		}
		for i, s := range ahead {
			if check.Uint64() != s {
				return nil, fmt.Errorf("core: pending seed %d of %d does not match the RNG stream", i, nAhead)
			}
		}
	}
	nw.rngDraws = pos
	nw.totals = totals
	nw.history = history
	nw.orphanRescues = orphanRescues
	nw.walkExhaustion = walkExhaustion
	return nw, nil
}

// restoreSets rebuilds the selected vertex sets from a mapping: owner[x]
// simulates x unless skip(x). Each owner is resolved once, and every
// set is sized and filled at once (see fillSets). It returns each
// vertex's owner slot (-1 where skipped).
func (nw *Network) restoreSets(owner []NodeID, nxt bool, skip func(x int) bool) ([]int32, error) {
	slots := make([]int32, len(owner))
	count := make([]int32, nw.real.Slots())
	for x, u := range owner {
		slots[x] = -1
		if skip(x) {
			continue
		}
		s, ok := nw.real.SlotOf(u)
		if !ok {
			what := "vertex"
			if nxt {
				what = "new vertex"
			}
			return nil, fmt.Errorf("core: %s %d mapped to dead node %d", what, x, u)
		}
		slots[x] = s
		count[s]++
	}
	nw.st.fillSets(slots, count, nxt)
	return slots, nil
}
