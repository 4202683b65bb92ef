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
// bookkeeping) lives in flat slot-indexed columns layered on the overlay
// graph's dense slot table, with every node's vertex sets held in one
// shared arena — see store.go for the layout, and store_model_test.go
// for the map-keyed model it is fuzzed against.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	real  *graph.Graph  // the overlay graph G_t (contraction of Z under Phi)

	// st holds every per-node table — loads, Sim/NewSim vertex sets,
	// dirty tracking, the O(1) sampling mirror, and the staggering
	// counters — in slot-indexed columns over nw.real's slot table.
	st state

	dist0 []int32 // cached BFS distances from vertex 0 (coordinator routing)

	nSpare int // |{u : load(u) >= 2}|
	nLow   int // |{u : load(u) <= 2*zeta}|

	stag *stagger // non-nil while a staggered rebuild is in flight

	nextID NodeID // smallest never-used node id (callers may pass their own)

	step        StepMetrics
	history     []StepMetrics
	totals      Totals
	rebuiltReal bool // set when a one-step type-2 rebuild rewired nw.real

	// edgeLog records the step's real-edge changes, one entry per raw
	// mutation, while an edge observer is registered; flushEdgeDeltas
	// nets it into the step's diff at the end of each step.
	edgeLog      []graph.EdgeDelta
	edgeObserver func(step int, deltas []graph.EdgeDelta)

	// auditRng drives sampled audits; it is separate from rng so auditing
	// never perturbs the recovery algorithm's random choices. auditRow is
	// wantRow's reused expected-row buffer.
	auditRng *rand.Rand
	auditRow []NodeID

	// failure counters for the pathological paths (never hit in normal
	// operation; exercised by failure-injection tests).
	orphanRescues  int
	walkExhaustion int
	// fastInserts counts steady-state inserts committed through
	// recoverInsert's degree-capped short-circuit (diagnostics only —
	// the fast path is byte-identical to the ladder, so this is never
	// part of History or the checkpoint image).
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
	// from the arena's run cells and read only slot-indexed columns, so
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

// New builds an initial DEX network of n0 >= 4 nodes with ids 0..n0-1,
// mapped onto Z(p0) for the smallest prime p0 in (4*n0, 8*n0), exactly as
// Section 4's initialization prescribes.
func New(n0 int, cfg Config) (*Network, error) {
	if n0 < 4 {
		return nil, fmt.Errorf("core: initial size %d < 4", n0)
	}
	if cfg.Zeta < 2 || cfg.Theta <= 0 || cfg.Theta > 0.5 || cfg.WalkFactor < 1 || cfg.HistoryCap < 0 {
		return nil, fmt.Errorf("core: invalid config %+v", cfg)
	}
	p0, ok := primes.FirstPrimeIn(int64(4*n0), int64(8*n0))
	if !ok {
		return nil, fmt.Errorf("core: no prime in (4*%d, 8*%d)", n0, n0)
	}
	z, err := pcycle.New(p0)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		z:      z,
		simOf:  make([]NodeID, p0),
		nextID: NodeID(n0),
	}
	nw.initTracking()
	for u := 0; u < n0; u++ {
		nw.st.addNode(NodeID(u))
	}
	for x := int64(0); x < p0; x++ {
		u := NodeID(x * int64(n0) / p0)
		nw.simOf[x] = u
		nw.st.simAdd(u, x)
	}
	for u := 0; u < n0; u++ {
		nw.setLoad(NodeID(u), nw.st.simLen(NodeID(u)), true)
	}
	nw.applyRealDiff(nw.expectedRealGraph())
	nw.refreshDist0()
	return nw, nil
}

// initTracking allocates the bookkeeping shared by both constructors:
// the slot-indexed state store (O(1) node sampling, dirty-node
// tracking, vertex sets) and the audit random source. nw.real is
// assigned once here (and never replaced afterwards: rebuilds mutate it
// in place via applyRealDiff, so references stay live) and the store's
// columns grow and recycle with its slot table from here on.
func (nw *Network) initTracking() {
	nw.real = graph.New()
	nw.st.init(nw.real, nw.cfg.Zeta)
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

// Graph returns the live overlay graph. Treat as read-only.
func (nw *Network) Graph() *graph.Graph { return nw.real }

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

// FastInserts reports how many inserts committed through recoverInsert's
// degree-capped steady-state short-circuit instead of the walk ladder.
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
func (nw *Network) SampleNode(r *rand.Rand) NodeID {
	return nw.st.nodeList[r.Intn(len(nw.st.nodeList))]
}

// SetEdgeObserver registers a callback receiving, once per step, the
// step's net real-edge changes as a batched, deterministically sorted
// diff (nil to clear). Only net changes are reported: an edge added and
// removed within one step cancels out.
//
//dexvet:mutator
func (nw *Network) SetEdgeObserver(f func(step int, deltas []graph.EdgeDelta)) {
	nw.edgeObserver = f
}

// edgeLogRetainCap bounds the capacity the edge log keeps between
// steps. A staggered step logs O(batch) entries, under a thousand in a
// 4096-to-24096-node staggered run; a one-step rebuild logs O(n), and
// keeping that spike's backing array would pin megabytes for the rest
// of the run.
const edgeLogRetainCap = 1 << 14

// logEdge records a change of k in the multiplicity of edge {a,b}.
func (nw *Network) logEdge(a, b NodeID, k int) {
	if a > b {
		a, b = b, a
	}
	nw.edgeLog = append(nw.edgeLog, graph.EdgeDelta{U: a, V: b, Delta: k})
}

// resetEdgeLog empties the edge log, dropping a spike's capacity (see
// edgeLogRetainCap).
func (nw *Network) resetEdgeLog() {
	if cap(nw.edgeLog) > edgeLogRetainCap {
		nw.edgeLog = nil
		return
	}
	nw.edgeLog = nw.edgeLog[:0]
}

// flushEdgeDeltas delivers the step's edge diff: the log sorted by
// (U, V), each pair's changes summed, zero sums dropped.
func (nw *Network) flushEdgeDeltas() {
	log := nw.edgeLog
	if nw.edgeObserver == nil || len(log) == 0 {
		return
	}
	slices.SortFunc(log, func(a, b graph.EdgeDelta) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
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
	nw.resetEdgeLog()
	if n == 0 {
		return
	}
	// Subscribers may keep the batch, so it must not alias the log.
	nw.edgeObserver(nw.step.Step, slices.Clone(log[:n]))
}

// MaxLoad returns the maximum total load over all nodes.
func (nw *Network) MaxLoad() int {
	m := 0
	for _, u := range nw.st.nodeList {
		if l := nw.st.loadOf(u); l > m {
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
	return nw.cfg.WalkFactor * int(math.Ceil(math.Log2(float64(n))))
}

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

// setLoad and bumpLoad are the id-keyed forms of the two setters.
func (nw *Network) setLoad(u NodeID, l int, fresh bool) { nw.setLoadAt(u, nw.st.slot(u), l, fresh) }
func (nw *Network) bumpLoad(u NodeID, delta int)        { nw.bumpLoadAt(u, nw.st.slot(u), delta) }

// dropLoadEntry removes u's load from the |Spare| / |Low| counters (node
// deletion; the store zeroes the column when the slot is released).
func (nw *Network) dropLoadEntry(u NodeID) {
	l := nw.st.loadOf(u)
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

// rawAddEdgeAt / rawRemoveEdgeAt mutate the live overlay, anchored at
// endpoint a's live slot sa, and feed the dirty-node set and (when
// observed) the step's edge log, without charging the paper's
// topology-change counter. Sampled audits re-verify exactly the dirty
// nodes, so every mutation a walk or stop predicate can observe marks
// its nodes: edge rows here and in the Mult forms below, loads through
// setLoadAt. The graph treats {a,b} symmetrically, so anchoring on
// either endpoint is valid; moveVertex resolves its anchor's slot once
// for the whole three-edge batch.
//
//dexvet:noalloc
func (nw *Network) rawAddEdgeAt(a NodeID, sa int32, b NodeID) {
	nw.real.AddEdgeAt(sa, a, b)
	nw.st.markDirtyAt(a, sa)
	nw.st.markDirty(b)
	if nw.edgeObserver != nil {
		nw.logEdge(a, b, 1)
	}
}

//dexvet:noalloc
func (nw *Network) rawRemoveEdgeAt(a NodeID, sa int32, b NodeID) {
	if !nw.real.RemoveEdgeAt(sa, a, b) {
		panic(fmt.Sprintf("core: removing absent real edge {%d,%d}", a, b))
	}
	nw.st.markDirtyAt(a, sa)
	nw.st.markDirty(b)
	if nw.edgeObserver != nil {
		nw.logEdge(a, b, -1)
	}
}

// rawAddEdgeMult / rawRemoveEdgeMult are the bulk forms used by the
// rebuild diff replay: one arena operation applies a whole multiplicity
// delta instead of k single-edge mutations.
func (nw *Network) rawAddEdgeMult(a, b NodeID, k int) {
	if k <= 0 {
		return
	}
	nw.real.AddEdgeMult(a, b, k)
	nw.st.markDirty(a)
	nw.st.markDirty(b)
	if nw.edgeObserver != nil {
		nw.logEdge(a, b, k)
	}
}

func (nw *Network) rawRemoveEdgeMult(a, b NodeID, k int) {
	if k <= 0 {
		return
	}
	if got := nw.real.RemoveEdgeMult(a, b, k); got != k {
		panic(fmt.Sprintf("core: removing %d of edge {%d,%d}, only %d present", k, a, b, got))
	}
	nw.st.markDirty(a)
	nw.st.markDirty(b)
	if nw.edgeObserver != nil {
		nw.logEdge(a, b, -k)
	}
}

// addRealEdgeAt / removeRealEdgeAt wrap the raw mutators and count
// topology changes for the current step; addRealEdge / removeRealEdge
// are their id-keyed forms.
//
//dexvet:noalloc
func (nw *Network) addRealEdgeAt(a NodeID, sa int32, b NodeID) {
	nw.rawAddEdgeAt(a, sa, b)
	nw.step.TopologyChanges++
}

//dexvet:noalloc
func (nw *Network) removeRealEdgeAt(a NodeID, sa int32, b NodeID) {
	nw.rawRemoveEdgeAt(a, sa, b)
	nw.step.TopologyChanges++
}

func (nw *Network) addRealEdge(a, b NodeID)    { nw.addRealEdgeAt(a, nw.st.slot(a), b) }
func (nw *Network) removeRealEdge(a, b NodeID) { nw.removeRealEdgeAt(a, nw.st.slot(a), b) }

// moveVertex transfers current-cycle vertex x from its simulator to node
// w, updating the contraction's real edges slot by slot. During a
// staggered rebuild the pending intermediate edges anchored at x move
// with it (they are virtual edges (ySrc, x)).
func (nw *Network) moveVertex(x Vertex, w NodeID) {
	u := nw.simOf[x]
	if u == w {
		return
	}
	// Pin the anchor slots once: every removal below is incident to u and
	// every insertion to w, so the whole edge batch runs slot-native (one
	// map probe per endpoint instead of one per edge; edges are
	// undirected, so anchoring the stagger pending edges on u/w is the
	// same mutation). Both lookups are pure reads, so resolving w's slot
	// up front (rather than mid-move) changes nothing observable.
	su, ok := nw.real.SlotOf(u)
	if !ok {
		panic(fmt.Sprintf("core: moveVertex from absent node %d", u))
	}
	sw, ok := nw.real.SlotOf(w)
	if !ok {
		panic(fmt.Sprintf("core: moveVertex to absent node %d", w))
	}
	nw.moveVertexAt(x, u, w, su, sw)
}

// moveVertexAt is moveVertex with both endpoints' slots (and x's current
// simulator u) already resolved: the steady-state insert fast path holds
// all three and skips every map probe of the move — the graph edges, the
// Sim sets, and the load counters all mutate slot-native. The mutation
// sequence is exactly moveVertex's.
func (nw *Network) moveVertexAt(x Vertex, u, w NodeID, su, sw int32) {
	for _, t := range nw.slotTargets(x) {
		if nw.stag != nil && nw.stag.phase == 2 && nw.stag.dropped(t) {
			continue // edge already removed with the dropped endpoint
		}
		nw.removeRealEdgeAt(u, su, nw.endpointOwner(x, t))
	}
	if nw.stag != nil {
		for _, pe := range nw.stag.pending[x] {
			nw.removeRealEdgeAt(u, su, nw.stag.newSimOf[pe.src])
		}
	}
	nw.st.setRemoveAt(su, x, false)
	nw.bumpLoadAt(u, su, -1)
	nw.simOf[x] = w
	nw.st.setAddAt(sw, x, false)
	nw.bumpLoadAt(w, sw, 1)
	for _, t := range nw.slotTargets(x) {
		if nw.stag != nil && nw.stag.phase == 2 && nw.stag.dropped(t) {
			continue
		}
		nw.addRealEdgeAt(w, sw, nw.endpointOwner(x, t))
	}
	if nw.stag != nil {
		for _, pe := range nw.stag.pending[x] {
			nw.addRealEdgeAt(w, sw, nw.stag.newSimOf[pe.src])
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
func (nw *Network) SomeVertexOf(u NodeID) (Vertex, bool) { return nw.anyVertexOf(u) }

// endpointOwner resolves the simulating node of slot target t of edge
// (x, t); when t == x the edge is a self-loop at x's simulator.
func (nw *Network) endpointOwner(x, t Vertex) NodeID {
	if t == x {
		return nw.simOf[x]
	}
	return nw.simOf[t]
}

// applyRealDiff mutates the live overlay in place until it equals want,
// touching only the node pairs whose multiplicity actually differs. The
// graph pointer is never replaced, so references returned by Graph()
// stay live across type-2 rebuilds, every net change lands in the
// dirty-node set, and subscribers see one batched edge diff instead of a
// wholesale swap. The seed engine rebuilt a fresh graph here; the diff
// is what lets a rebuild re-emit only the edges that changed.
func (nw *Network) applyRealDiff(want *graph.Graph) {
	for _, u := range nw.real.Nodes() {
		if want.HasNode(u) {
			continue
		}
		for _, v := range nw.real.Neighbors(u) {
			nw.rawRemoveEdgeMult(u, v, nw.real.Multiplicity(u, v))
		}
		nw.st.markDirty(u)
		nw.real.RemoveNode(u)
	}
	for _, u := range want.Nodes() {
		if !nw.real.HasNode(u) {
			nw.real.AddNode(u)
			nw.st.markDirty(u)
		}
	}
	for _, u := range want.Nodes() {
		for _, v := range want.Neighbors(u) {
			if v < u {
				continue
			}
			d := want.Multiplicity(u, v) - nw.real.Multiplicity(u, v)
			if d > 0 {
				nw.rawAddEdgeMult(u, v, d)
			} else if d < 0 {
				nw.rawRemoveEdgeMult(u, v, -d)
			}
		}
		for _, v := range nw.real.Neighbors(u) {
			if v < u || want.Multiplicity(u, v) > 0 {
				continue
			}
			nw.rawRemoveEdgeMult(u, v, nw.real.Multiplicity(u, v))
		}
	}
}

// refreshDist0 recomputes the cached BFS tree of vertex 0 on the current
// p-cycle (used for coordinator routing charges and the DHT router).
func (nw *Network) refreshDist0() {
	nw.dist0 = nw.z.DistancesFrom(0)
}

// Dist0 returns the virtual hop distance from x to vertex 0.
func (nw *Network) Dist0(x Vertex) int { return int(nw.dist0[x]) }

// anyVertexOf returns some vertex simulated at u (smallest for
// determinism).
func (nw *Network) anyVertexOf(u NodeID) (Vertex, bool) {
	s, ok := nw.real.SlotOf(u)
	if !ok {
		return 0, false
	}
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
// message from v to the coordinator (Algorithm 4.7 lines 5/11): one
// O(log n)-bit message routed along a shortest virtual path to vertex 0,
// plus the O(1) neighbor replication of the coordinator state.
func (nw *Network) chargeCoordinatorNotify(v NodeID) {
	x, ok := nw.anyVertexOf(v)
	if !ok {
		return
	}
	d := nw.z.DiameterUpperBound()
	if x >= 0 && x < int64(len(nw.dist0)) && int(nw.dist0[x]) < d {
		d = int(nw.dist0[x])
	}
	nw.step.Rounds += d
	nw.step.Messages += d
	coordDeg := nw.real.DistinctDegree(nw.simOf[0])
	nw.step.Messages += coordDeg // state replication to neighbors
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

// runWalkAt performs one type-1 token walk on the live overlay from
// start at its live slot startSlot and charges its cost: the whole walk
// — stepping, stop predicate, cost charge — touches no id→slot map.
//
//dexvet:noalloc
func (nw *Network) runWalkAt(start NodeID, startSlot int32, exclude NodeID, stop func(NodeID, int32) bool) congest.WalkResult {
	res := congest.RandomWalkDirectAt(nw.real, start, startSlot, exclude, nw.walkLen(), nw.walkSeed(), stop)
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

// newCycleChecked and newRng keep batch.go free of direct dependencies.
func newCycleChecked(p int64) (*pcycle.Cycle, error) { return pcycle.New(p) }

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
