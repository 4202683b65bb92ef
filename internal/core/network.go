// Package core implements DEX, the paper's self-healing expander
// maintenance algorithm (Sections 3-5).
//
// A Network simulates the distributed system at the protocol level: the
// real overlay graph G_t is maintained as the vertex contraction of a
// virtual p-cycle expander Z(p) under the balanced virtual mapping Phi
// (Definitions 1-3), and every insertion or deletion triggers the paper's
// recovery procedures:
//
//   - type-1 recovery (Algorithms 4.2/4.3): O(log n)-step random walks
//     rebalance O(1) virtual vertices;
//   - simplified type-2 recovery (Algorithms 4.5/4.6): one-step inflation
//     or deflation of the whole p-cycle, amortized over the Omega(n)
//     type-1 steps between rebuilds (Corollary 1);
//   - staggered type-2 recovery (Algorithms 4.7/4.8/4.9): a coordinator
//     (the simulator of vertex 0) triggers rebuilds early and spreads
//     them over Theta(n) steps, giving the worst-case O(log n)
//     rounds/messages and O(1) topology changes of Theorem 1.
//
// Costs (rounds, messages, topology changes) are counted exactly as the
// paper counts them: every walk hop, flood crossing, routed control hop
// and edge change increments a counter. Type-1 walks and Simplified
// mode's size-count floods run in congest's direct forms, which the
// congest package proves equal, rounds and messages included, to their
// goroutine message-passing executions, so these counters are faithful
// to the CONGEST model.
//
// Per-node engine state (loads, vertex sets, dirty tracking, staggering
// bookkeeping) lives in flat slot-indexed 32-byte rows layered on the
// overlay graph's dense slot table, with every node's vertex sets held
// in one shared arena — see store.go for the layout, and store_model_test.go
// for the map-keyed model it is fuzzed against.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/pcycle"
	"repro/internal/primes"
)

// Vertex aliases a p-cycle vertex.
type Vertex = pcycle.Vertex

// NodeID aliases the real-network node identifier.
type NodeID = graph.NodeID

// RecoveryMode selects how type-2 recovery is performed.
type RecoveryMode int

const (
	// Simplified rebuilds the whole virtual graph in a single step
	// (Algorithms 4.5/4.6): amortized bounds of Corollary 1.
	Simplified RecoveryMode = iota
	// Staggered spreads rebuilds over Theta(n) steps via the coordinator
	// (Algorithms 4.7-4.9): worst-case bounds of Theorem 1.
	Staggered
)

func (m RecoveryMode) String() string {
	if m == Staggered {
		return "staggered"
	}
	return "simplified"
}

// Config parameterizes a DEX network.
type Config struct {
	// Zeta is the maximum cloud size of the p-cycle construction; the
	// paper fixes zeta <= 8 and so do we (it is exposed for ablations).
	Zeta int
	// Theta is the rebuilding parameter theta. The paper's proofs need
	// theta <= 1/(68*zeta+1); experiments default to a larger 1/64, which
	// keeps staggering phases short while all invariants continue to hold
	// empirically (ablation AB-THETA explores this).
	Theta float64
	// WalkFactor is c in the walk length c*ceil(log2 n).
	WalkFactor int
	// WalkRetryLimit caps type-1 walk retries before the implementation
	// reports a failure (the paper retries forever; the cap only guards
	// against implementation bugs and is never hit in the experiments).
	WalkRetryLimit int
	// Mode selects simplified or staggered type-2 recovery.
	Mode RecoveryMode
	// Seed drives all randomized choices.
	Seed int64
	// HistoryCap bounds the in-memory per-step metrics history; 0 keeps
	// every step (the default). When the cap is reached the older half is
	// discarded, so long churn runs hold O(cap) metrics memory while
	// Totals keeps exact lifetime aggregates.
	HistoryCap int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Zeta:           8,
		Theta:          1.0 / 64,
		WalkFactor:     4,
		WalkRetryLimit: 64,
		Mode:           Staggered,
		Seed:           1,
	}
}

// Network is a DEX-maintained overlay network.
type Network struct {
	cfg Config
	rng *rand.Rand

	z     *pcycle.Cycle // current virtual graph Z(p)
	simOf []NodeID      // Phi: vertex -> simulating node
	// simSlot[x] is the slot of simOf[x] for every vertex a phase-2
	// rebuild has not dropped, so derived rows and vertex moves reach a
	// far node's slot without resolving its id. Only reads without a
	// view need it: a view's materialization releases it, and dropping
	// the view resolves it again.
	simSlot []int32

	// real is the overlay G_t: its slot table always, its adjacency a
	// view of the contraction, materialized only by an observer (Graph()
	// or a Simplified size-count flood) or by the mean-load rule (see
	// view.go). viewKept says the view is kept, and observed that
	// something has observed it, which keeps the view from then on. edges
	// counts the overlay's edges (a self-loop once) whether or not a view
	// is kept, and tmp is the insert's temporary attach edge while it
	// exists.
	real       *graph.Graph
	viewKept   bool
	viewEdited bool // edited since Graph last compacted it
	observed   bool
	edges      int
	tmp        tempEdge
	coord      coordCache // the coordinator's distinct degree (coordDegree)
	// cached holds two nodes' rows as cells (rowCache): the adopter a
	// delete's redistribution walks all leave from (pinned, -1 outside
	// that loop) and one other node.
	cached [2]rowCache
	pinned int32

	// st holds every per-node table — loads, Sim/NewSim vertex sets,
	// dirty tracking, the O(1) sampling mirror, and the staggering
	// counters — in slot-indexed rows over nw.real's slot table.
	st state

	dist0 []int32 // cached BFS distances from vertex 0 (coordinator routing)

	nSpare int // |{u : load(u) >= 2}|
	nLow   int // |{u : load(u) <= 2*zeta}|

	stag *stagger // non-nil while a staggered rebuild is in flight

	nextID NodeID // smallest never-used node id (callers may pass their own)

	step    StepMetrics
	history []StepMetrics
	totals  Totals

	// edgeLog records the step's overlay changes, one entry per change,
	// while an edge observer is registered; flushEdgeDeltas hands the
	// observer a copy at the end of each step, unless edgeDemand says
	// nobody takes it.
	edgeLog      []graph.EdgeDelta
	edgeObserver func(step int, log []graph.EdgeDelta)
	edgeDemand   func() bool

	// auditRng drives sampled audits; it is separate from rng so auditing
	// never perturbs the recovery algorithm's random choices. auditRow is
	// the reused row buffer of wantRow and rowAt; auditList holds a
	// sampled audit's check list of (node, slot) pairs, gathered before
	// warmAudit runs. warmSink is the one field warmAudit writes: it keeps
	// the compiler from dropping its loads, and nothing reads it.
	auditRng  *rand.Rand
	auditRow  []NodeID
	rowSlots  []int32
	auditList []mirrorEntry
	warmSink  int

	// bfsSeen and bfsQueue are DeleteBatch's slot-indexed scratch for
	// its in-place connectivity check (remainderConnected).
	bfsSeen  []bool
	bfsQueue []int32

	// failure counters for the pathological paths (never hit in normal
	// operation; exercised by failure-injection tests).
	orphanRescues  int
	walkExhaustion int
	// fastInserts counts inserts whose first walk stopped at its start
	// outside a stagger, the attach point being Spare (diagnostics only,
	// never part of History or the checkpoint image).
	fastInserts int

	// transferObserver, when set, is invoked after a current-cycle vertex
	// migrates between nodes (the DHT uses it to migrate and account for
	// the vertex's key/value items, cf. Section 4.4.4).
	transferObserver func(x Vertex, from, to NodeID)
	// rebuildObserver, when set, is invoked after the virtual graph is
	// replaced (inflation/deflation commit) with the new modulus.
	rebuildObserver func(pNew int64)

	// Walk stop predicates, built once in initTracking: closures capture
	// the network, per-op parameters flow through the fields below
	// (stopExclude, contendU, shedExcl, stagPhase2), so the recovery path
	// allocates no closure per operation — every predicate the engine ever
	// hands a walk is one of these. They take (id, slot) pairs straight
	// from the arena's run cells and read only slot-indexed store rows, so
	// predicate evaluation performs no id→slot map probe. The scratch
	// buffer for vertexHoldings lives here for the same reason.
	steadyInsertStop  func(NodeID, int32) bool
	steadyLowStop     func(NodeID, int32) bool
	holdNewStop       func(NodeID, int32) bool // staggered new-cycle holding placement
	inflateP2Stop     func(NodeID, int32) bool // inflate phase 2 holding placement
	deflateHoldStop   func(NodeID, int32) bool // deflation holding placement
	stagInsertStop    func(NodeID, int32) bool // insertion donor during a rebuild
	serialContendStop func(NodeID, int32) bool
	shedStop          func(NodeID, int32) bool
	stopExclude       NodeID
	contendU          NodeID // serialContendStop's excluded contender
	shedExcl          NodeID // shedStop's excluded overflowing node
	stagPhase2        bool   // stagInsertStop: rebuild is in phase 2
	holdScratch       []holding

	contendSlots []int32 // eligible contenders' start slots, parallel to eligible

	// rngDraws counts uint64 draws taken from rng since construction.
	// walkSeed draws through drawU64, so a checkpoint can record the
	// stream position and a restore can fast-forward a fresh source to
	// it — RNG state is then (Seed, rngDraws), nothing more.
	rngDraws uint64
	// seedObserver, when set, is invoked with every walk seed the moment
	// it is consumed (walkSeed, in serial commit order). The persistence
	// layer records the per-step seed stream in WAL records with it and
	// verifies the stream during replay.
	seedObserver func(seed uint64)
	// rngReplaced marks that SetRNG swapped in a caller-owned source, so
	// (Seed, rngDraws) no longer describes the stream and the network
	// cannot be checkpointed.
	rngReplaced bool

	// flood is the slot-indexed scratch of Simplified mode's size-count
	// floods (computeSpare/computeLow), which count with the prebuilt
	// steadyInsertStop/steadyLowStop predicates.
	flood congest.Flood
}

// validate reports whether every field of c is in its domain. The
// constructors and RestoreNetwork all run this one check.
func (c Config) validate() error {
	if c.Zeta < 2 || c.Theta <= 0 || c.Theta > 0.5 || c.WalkFactor < 1 || c.WalkRetryLimit < 1 ||
		c.Mode < Simplified || c.Mode > Staggered || c.HistoryCap < 0 {
		return fmt.Errorf("core: invalid config %+v", c)
	}
	return nil
}

// New builds an initial DEX network of n0 >= 4 nodes with ids 0..n0-1,
// mapped onto Z(p0) for the smallest prime p0 in (4*n0, 8*n0), exactly as
// Section 4's initialization prescribes: vertex x goes to node
// x*n0/p0, the balanced mapping.
func New(n0 int, cfg Config) (*Network, error) {
	if n0 < 4 {
		return nil, fmt.Errorf("core: initial size %d < 4", n0)
	}
	p0, ok := primes.FirstPrimeIn(int64(4*n0), int64(8*n0))
	if !ok {
		return nil, fmt.Errorf("core: no prime in (4*%d, 8*%d)", n0, n0)
	}
	owner := make([]NodeID, p0)
	for x := range owner {
		owner[x] = NodeID(int64(x) * int64(n0) / p0)
	}
	return NewWithMapping(p0, owner, cfg)
}

// NewWithMapping builds a network directly from an explicit virtual
// mapping: owner[x] is the node simulating vertex x of Z(p). New uses
// it with the balanced mapping; the Figure 1 reproduction and tests use
// it for a precise starting state. The mapping must be surjective onto
// its node set, of non-negative ids, with loads <= 4*zeta.
func NewWithMapping(p int64, owner []NodeID, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if int64(len(owner)) != p {
		return nil, fmt.Errorf("core: owner table has %d entries, want %d", len(owner), p)
	}
	z, err := pcycle.New(p)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:   cfg,
		rng:   newRng(cfg.Seed),
		z:     z,
		simOf: append([]NodeID(nil), owner...),
	}
	nw.initTracking()
	nw.simSlot = make([]int32, p)
	for x, u := range owner {
		if u < 0 {
			return nil, fmt.Errorf("%w: vertex %d mapped to %d", errNegativeID, x, u)
		}
		s, ok := nw.real.SlotOf(u)
		if !ok {
			s = nw.st.addNode(u)
		}
		nw.simSlot[x] = s
		nw.st.setAddAt(s, Vertex(x), false)
		if u >= nw.nextID {
			nw.nextID = u + 1
		}
	}
	for _, e := range nw.st.nodeList {
		l := nw.st.setLenAt(e.slot, false)
		if l > 4*cfg.Zeta {
			return nil, fmt.Errorf("core: node %d load %d exceeds 4*zeta", e.id, l)
		}
		nw.setLoadAt(e.id, e.slot, l, true)
	}
	// No view yet: the overlay is counted, and its epoch advanced by one
	// per distinct pair, as adding each pair in one call would advance it.
	if err := nw.countOverlay(); err != nil {
		return nil, err
	}
	nw.real.SetEpoch(nw.real.Epoch() + uint64(len(NetLog(nw.appendOverlay(nil, 1)))))
	nw.refreshDist0()
	return nw, nil
}

// initTracking allocates the bookkeeping shared by both constructors:
// the slot-indexed state store (O(1) node sampling, dirty-node
// tracking, vertex sets) and the audit random source. nw.real is
// assigned once here (and never replaced afterwards: its view is edited
// in place, so references stay live) and the store's rows grow and
// recycle with its slot table from here on.
func (nw *Network) initTracking() {
	nw.real = graph.New()
	nw.st.init(nw.real, nw.cfg.Zeta)
	nw.dropCached(-1)
	nw.pinned = -1
	nw.auditRng = rand.New(rand.NewSource(nw.cfg.Seed ^ 0x5eed_a0d1))
	st := &nw.st
	zeta := nw.cfg.Zeta
	lowT := 2 * zeta
	nw.steadyInsertStop = func(u NodeID, s int32) bool { return u != nw.stopExclude && st.loadAt(s) >= 2 }
	nw.steadyLowStop = func(_ NodeID, s int32) bool { return st.loadAt(s) <= lowT }
	nw.holdNewStop = func(_ NodeID, s int32) bool {
		return st.setLenAt(s, true) < 4*zeta && st.loadAt(s) < 8*zeta-1
	}
	nw.inflateP2Stop = func(_ NodeID, s int32) bool { return st.loadAt(s) <= 6*zeta }
	nw.deflateHoldStop = func(_ NodeID, s int32) bool {
		return st.loadAt(s) <= 6*zeta && st.effNewAt(s) < 4*zeta
	}
	nw.stagInsertStop = func(w NodeID, s int32) bool {
		if w == nw.stopExclude {
			return false
		}
		if nw.stagPhase2 {
			return st.setLenAt(s, true) >= 2
		}
		if st.setLenAt(s, true) >= 2 {
			return true
		}
		return st.loadAt(s) >= 2 && st.unprocOldAt(s) >= 1
	}
	nw.serialContendStop = func(w NodeID, s int32) bool { return w != nw.contendU && st.setLenAt(s, true) >= 2 }
	nw.shedStop = func(w NodeID, s int32) bool { return w != nw.shedExcl && st.effNewAt(s) < 4*zeta }
}

// --- basic accessors -------------------------------------------------------

// Size returns the current number of real nodes n.
func (nw *Network) Size() int { return nw.st.size() }

// P returns the current p-cycle modulus.
func (nw *Network) P() int64 { return nw.z.P() }

// Cycle returns the current virtual graph (read-only).
func (nw *Network) Cycle() *pcycle.Cycle { return nw.z }

// Graph returns the live overlay graph. Treat as read-only. The first
// call materializes it from the mapping when no view is kept yet, in
// O(p); from then on it is kept, stays the same pointer, and changes
// with every edge change, so it is current between steps and inside
// mid-step callbacks alike. A call after an edge change first compacts
// the view (graph.Compact, a copy of its cells as long as a Clone), so
// its layout, and its Stats, do not depend on when it was first
// observed; a call with no edge change since the last one costs O(1).
// A caller that wants a copy, not the live graph, takes a Snapshot,
// which keeps no view.
func (nw *Network) Graph() *graph.Graph {
	g := nw.observe()
	if nw.viewEdited {
		g.Compact()
		nw.viewEdited = false
	}
	return g
}

// Nodes returns the current node ids in ascending order.
func (nw *Network) Nodes() []NodeID { return nw.real.Nodes() }

// Load returns the total number of virtual vertices simulated by u
// (current p-cycle plus, during staggering, the next one).
func (nw *Network) Load(u NodeID) int { return nw.st.loadOf(u) }

// OwnerOf returns the node simulating virtual vertex x of the current
// p-cycle.
func (nw *Network) OwnerOf(x Vertex) NodeID { return nw.simOf[x] }

// Coordinator returns the node currently simulating vertex 0
// (Algorithm 4.7's coordinator).
func (nw *Network) Coordinator() NodeID { return nw.simOf[0] }

// Zeta returns the configured maximum cloud size zeta (Lemma 9 bounds
// every load by 4*zeta).
func (nw *Network) Zeta() int { return nw.cfg.Zeta }

// Config returns the network's configuration (a copy). Persistence uses
// it to reject resuming a checkpoint under incompatible options.
func (nw *Network) Config() Config { return nw.cfg }

// SpareCount and LowCount expose the coordinator's counters.
func (nw *Network) SpareCount() int { return nw.nSpare }

// LowCount returns |Low| = #{u : load(u) <= 2*zeta}.
func (nw *Network) LowCount() int { return nw.nLow }

// Rebuilding reports whether a staggered type-2 rebuild is in flight, and
// its phase (0 when idle).
func (nw *Network) Rebuilding() (active bool, phase int) {
	if nw.stag == nil {
		return false, 0
	}
	return true, nw.stag.phase
}

// History returns per-step metrics since creation.
func (nw *Network) History() []StepMetrics { return nw.history }

// OrphanRescues returns how many times the drop-time rescue path ran
// (see stagger.go); zero in all normal operation.
func (nw *Network) OrphanRescues() int { return nw.orphanRescues }

// FastInserts reports how many inserts found their donor without a walk
// step: outside a stagger, at an attach point that was Spare, whose
// first walk stopped at its start.
func (nw *Network) FastInserts() int { return nw.fastInserts }

// Close releases nothing: the engine owns no goroutines, files, or
// other resources beyond memory. It exists so that owners can release
// every engine the same way, and the network stays usable afterwards.
func (nw *Network) Close() {}

// FreshID returns an unused node id and advances the internal counter;
// adversaries may instead supply their own ids to Insert.
//
//dexvet:mutator
func (nw *Network) FreshID() NodeID {
	id := nw.nextID
	nw.nextID++
	return id
}

// SampleNode returns a uniformly random live node id in O(1), drawing
// from r. Unlike Nodes() it performs no sorting or allocation, so
// adversaries can churn million-node networks without a per-step O(n)
// scan.
func (nw *Network) SampleNode(r *rand.Rand) NodeID { return nw.st.sample(r).id }

// SetEdgeObserver registers a callback receiving, once per step, the
// step's net real-edge changes as a batched, deterministically sorted
// diff (nil to clear), which the callback may keep. Only net changes
// are reported: an edge added and removed within one step cancels out,
// and a step whose changes all cancel calls nothing. It is the raw
// hand-off (SetEdgeLogObserver) netted on the stepping goroutine, and
// replaces any observer registered either way.
//
//dexvet:mutator
func (nw *Network) SetEdgeObserver(f func(step int, deltas []graph.EdgeDelta)) {
	if f == nil {
		nw.SetEdgeLogObserver(nil)
		return
	}
	nw.SetEdgeLogObserver(func(step int, log []graph.EdgeDelta) {
		if d := NetLog(log); len(d) > 0 {
			f(step, d)
		}
	})
}

// SetEdgeLogObserver registers a callback receiving, at the end of
// every step that changed an edge, the step's raw edge log: one entry
// per change of an edge's multiplicity, in the order made, with U <= V,
// in a copy the callback owns (nil to clear). NetLog turns it into the step's diff in
// place, on whichever goroutine the callback hands it to. An observer
// keeps no overlay view: every change appends to the edge log while one
// is registered.
//
//dexvet:mutator
func (nw *Network) SetEdgeLogObserver(f func(step int, log []graph.EdgeDelta)) {
	nw.edgeObserver = f
}

// SetEdgeDemand registers wanted, which each step's end calls to ask
// whether the edge observer takes that step's diff (nil to clear: it
// always does). While wanted reports false, the step's log is dropped
// without netting or copying it, and the observer is not called. The
// log is written during the step either way, so an observer that
// starts taking diffs mid-step gets that step's whole diff.
//
//dexvet:mutator
func (nw *Network) SetEdgeDemand(wanted func() bool) {
	nw.edgeDemand = wanted
}

// MaxLoad returns the maximum total load over all nodes.
func (nw *Network) MaxLoad() int {
	m := 0
	for _, e := range nw.st.nodeList {
		if l := nw.st.loadAt(e.slot); l > m {
			m = l
		}
	}
	return m
}

// walkLen returns the type-1 walk length c*ceil(log2 n).
func (nw *Network) walkLen() int {
	n := nw.Size()
	if n < 2 {
		return 1
	}
	return nw.cfg.WalkFactor * ceilLog2(n)
}

// ceilLog2 returns ceil(log2 n) for n >= 1, exactly, in integers.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// --- load & set-size tracking ----------------------------------------------

// setLoadAt updates the load of node u at live slot s and the |Spare| /
// |Low| counters. fresh marks a node that had no previous load entry. A
// no-change write is skipped entirely (in particular, it marks nothing
// dirty).
//
//dexvet:noalloc
func (nw *Network) setLoadAt(u NodeID, s int32, l int, fresh bool) {
	old := -1
	if !fresh {
		old = nw.st.loadAt(s)
		if old == l {
			return
		}
	}
	lowT := 2 * nw.cfg.Zeta
	if !fresh {
		if old >= 2 {
			nw.nSpare--
		}
		if old <= lowT {
			nw.nLow--
		}
	}
	if l >= 2 {
		nw.nSpare++
	}
	if l <= lowT {
		nw.nLow++
	}
	nw.st.putLoadDirtyAt(u, s, l)
}

//dexvet:noalloc
func (nw *Network) bumpLoadAt(u NodeID, s int32, delta int) {
	nw.setLoadAt(u, s, nw.st.loadAt(s)+delta, false)
}

// dropLoadEntry removes the load of the node at slot s from the |Spare|
// / |Low| counters (node deletion; the store zeroes the column when the
// slot is released).
func (nw *Network) dropLoadEntry(s int32) {
	l := nw.st.loadAt(s)
	if l >= 2 {
		nw.nSpare--
	}
	if l <= 2*nw.cfg.Zeta {
		nw.nLow--
	}
}

// --- virtual-edge enumeration and vertex movement --------------------------

// slotTargets returns the three virtual edge slots of x in the current
// p-cycle.
func (nw *Network) slotTargets(x Vertex) [3]Vertex { return nw.z.NeighborSlots(x) }

// moveVertexAt transfers current-cycle vertex x from its simulator u, at
// slot su, to node w at slot sw, updating the contraction's real edges.
// Every removal is anchored at u and every insertion at w, so the Sim
// sets and the load counters all mutate by slot. Each edge's far end
// stays put, so its slot serves the removal and the addition: read from
// simSlot without a view, and handed back by the removal from u's run
// cell with one. x's own chord self-loop's far end moves with x. During
// a staggered rebuild the pending intermediate edges anchored at x move
// with it (they are virtual edges (ySrc, x)).
func (nw *Network) moveVertexAt(x Vertex, u NodeID, su int32, w NodeID, sw int32) {
	if u == w {
		return
	}
	var far [3]int32
	targets := nw.slotTargets(x)
	for i, t := range targets {
		if nw.stag != nil && nw.stag.phase == 2 && nw.stag.dropped(t) {
			continue // edge already removed with the dropped endpoint
		}
		if t == x {
			nw.removeRealEdgeAt(u, su, u, su)
			continue
		}
		far[i] = -1
		if nw.simSlot != nil {
			far[i] = nw.simSlot[t]
		}
		far[i] = nw.removeRealEdgeAt(u, su, nw.simOf[t], far[i])
	}
	if nw.stag != nil {
		for _, pe := range nw.stag.pending[x] {
			nw.removeRealEdgeAt(u, su, nw.stag.newSimOf[pe.src], -1)
		}
	}
	nw.st.setRemoveAt(su, x, false)
	nw.bumpLoadAt(u, su, -1)
	nw.simOf[x] = w
	if nw.simSlot != nil {
		nw.simSlot[x] = sw
	}
	nw.st.setAddAt(sw, x, false)
	nw.bumpLoadAt(w, sw, 1)
	for i, t := range targets {
		if nw.stag != nil && nw.stag.phase == 2 && nw.stag.dropped(t) {
			continue
		}
		if t == x {
			nw.addRealEdgeAt(w, sw, w, sw)
			continue
		}
		nw.addRealEdgeAt(w, sw, nw.simOf[t], far[i])
	}
	if nw.stag != nil {
		for _, pe := range nw.stag.pending[x] {
			nw.addRealEdgeAt(w, sw, nw.stag.newSimOf[pe.src], -1)
		}
		// An unprocessed vertex carries its projected cloud load and its
		// pending-work accounting with it.
		if !nw.stag.processed(x) {
			proj := nw.stag.projection(x)
			nw.st.addEffNewAt(su, -proj)
			nw.st.addEffNewAt(sw, proj)
			nw.st.addUnprocOldAt(su, -1)
			nw.st.addUnprocOldAt(sw, 1)
		}
	}
	if nw.transferObserver != nil {
		nw.transferObserver(x, u, w)
	}
}

// SetTransferObserver registers a callback fired after each
// current-cycle vertex migration (nil to clear).
//
//dexvet:mutator
func (nw *Network) SetTransferObserver(f func(x Vertex, from, to NodeID)) {
	nw.transferObserver = f
}

// SetRNG replaces the network's random source. Construction itself is
// deterministic (the balanced virtual mapping draws no coins), so
// swapping the source right after New yields a network whose every
// random choice comes from r.
//
//dexvet:mutator
func (nw *Network) SetRNG(r *rand.Rand) {
	if r != nil {
		nw.rng = r
		nw.rngReplaced = true
	}
}

// SetRebuildObserver registers a callback fired after each virtual-graph
// replacement with the new modulus (nil to clear).
//
//dexvet:mutator
func (nw *Network) SetRebuildObserver(f func(pNew int64)) {
	nw.rebuildObserver = f
}

// SomeVertexOf exposes one (the smallest) vertex simulated at u.
func (nw *Network) SomeVertexOf(u NodeID) (Vertex, bool) {
	s, ok := nw.real.SlotOf(u)
	if !ok {
		return 0, false
	}
	return nw.anyVertexOf(s)
}

// refreshDist0 recomputes the cached BFS tree of vertex 0 on the current
// p-cycle (used for coordinator routing charges and the DHT router).
func (nw *Network) refreshDist0() {
	nw.dist0 = nw.z.DistancesFrom(0)
}

// resolveSimSlots recomputes simSlot from simOf after the mapping is
// replaced wholesale (a rebuild's commit) or a view is dropped, skipping
// dropped vertices; while a view is kept there is no simSlot to keep.
func (nw *Network) resolveSimSlots() {
	if nw.viewKept {
		return
	}
	nw.simSlot = slices.Grow(nw.simSlot[:0], len(nw.simOf))[:len(nw.simOf)]
	for x, u := range nw.simOf {
		if s, ok := nw.real.SlotOf(u); ok {
			nw.simSlot[x] = s
		} else {
			nw.simSlot[x] = -1
		}
	}
}

// Dist0 returns the virtual hop distance from x to vertex 0.
func (nw *Network) Dist0(x Vertex) int { return int(nw.dist0[x]) }

// anyVertexOf returns some vertex simulated by the node at slot s
// (smallest for determinism).
func (nw *Network) anyVertexOf(s int32) (Vertex, bool) {
	if r := nw.st.setAt(s, false); len(r) > 0 {
		return r[0], true
	}
	if nw.stag != nil {
		if r := nw.st.setAt(s, true); len(r) > 0 {
			return r[0], true
		}
	}
	return 0, false
}

// chargeCoordinatorNotify accounts the post-recovery counter update
// message from the node at slot sv to the coordinator (Algorithm 4.7
// lines 5/11): one O(log n)-bit message routed along a shortest virtual
// path to vertex 0, plus the O(1) neighbor replication of the
// coordinator state.
func (nw *Network) chargeCoordinatorNotify(sv int32) {
	x, ok := nw.anyVertexOf(sv)
	if !ok {
		return
	}
	d := nw.z.DiameterUpperBound()
	if x >= 0 && x < int64(len(nw.dist0)) && int(nw.dist0[x]) < d {
		d = int(nw.dist0[x])
	}
	nw.step.Rounds += d
	nw.step.Messages += d
	nw.step.Messages += nw.coordDegree() // state replication to neighbors
	nw.step.Rounds++
}

// walkSeed draws the next token seed. It is the engine's only RNG
// consumer, so the uint64 stream is a pure function of the seed and
// the serial order of walks.
func (nw *Network) walkSeed() uint64 {
	s := nw.drawU64()
	if nw.seedObserver != nil {
		nw.seedObserver(s)
	}
	return s
}

// drawU64 is the only call site of rng.Uint64: it keeps rngDraws equal
// to the number of values consumed from the source, which is what makes
// the RNG checkpointable (see AppendState).
func (nw *Network) drawU64() uint64 {
	nw.rngDraws++
	return nw.rng.Uint64()
}

// SetSeedObserver registers a callback fired with every walk seed as it
// is consumed, in serial commit order (nil to clear). The callback must
// not reenter the network.
//
//dexvet:mutator
func (nw *Network) SetSeedObserver(f func(seed uint64)) {
	nw.seedObserver = f
}

// runWalkAt performs one type-1 token walk on the overlay from start at
// its live slot startSlot and charges its cost. Its hops read the rows
// hopRows derives, which make the arena's exact pick.
//
//dexvet:noalloc
func (nw *Network) runWalkAt(start NodeID, startSlot int32, exclude NodeID, stop func(NodeID, int32) bool) congest.WalkResult {
	res := congest.RandomWalkDirectAt(hopRows{nw}, start, startSlot, exclude, nw.walkLen(), nw.walkSeed(), stop)
	nw.step.Rounds += res.Steps
	nw.step.Messages += res.Steps
	return res
}

// errors exposed to adversaries / examples.
var (
	ErrUnknownNode = errors.New("core: unknown node")
	ErrDuplicateID = errors.New("core: node id already present")
	ErrTooSmall    = errors.New("core: refusing to shrink below 4 nodes")
)

// errNegativeID refuses a negative node id: the engine reserves -1 and
// below as "no node" (a walk's exclude, an ungenerated new vertex's
// owner, a search that found nothing).
var errNegativeID = errors.New("core: node ids must be non-negative")

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// deflationFor returns the deflation map a type-2 rebuild from the
// current state may use, requiring pNew to stay at or above the live
// node count (plus, for a staggered rebuild, slack for the adversarial
// insertions its Theta(n)-step flight can absorb). Without the floor a
// small-zeta network whose loads cross 2*zeta while n is still large
// would start a deflation with pNew < n — a mapping that cannot be
// surjective, so its forced contender resolution is structurally
// infeasible and the seed implementation panicked (the documented
// zeta<=3 deep-crash corner). ok=false means no admissible prime
// exists and the rebuild must simply not run yet; loads stay bounded
// because |Low| >= 1 whenever deflation is infeasible at this floor
// (pNew >= n forces average load <= 4 right after the commit, and the
// trigger re-fires as n keeps shrinking).
func (nw *Network) deflationFor(staggered bool) (pcycle.Deflation, bool) {
	n := nw.Size()
	floor := int64(n)
	if staggered {
		floor += int64(2*nw.cfg.Theta*float64(n)) + 8
	}
	def, err := pcycle.NewDeflationFloor(nw.z.P(), floor)
	if err != nil {
		return pcycle.Deflation{}, false
	}
	return def, true
}
