// Package dex is the public, stable API of this repository's
// reproduction of "DEX: Self-Healing Expanders" (Pandurangan, Robinson,
// Trehan; IPPS 2014).
//
// A dex.Network maintains an overlay graph that stays a constant-degree
// expander under fully adversarial node insertions and deletions: the
// real graph G_t is the vertex contraction of a virtual p-cycle expander
// Z(p) under a balanced mapping, and every churn operation triggers the
// paper's type-1 (random-walk rebalancing) and type-2
// (inflation/deflation rebuild) recovery procedures, at O(log n) rounds
// and messages and O(1) topology changes per operation (Theorem 1).
//
// Construction uses functional options:
//
//	nw, err := dex.New(
//		dex.WithInitialSize(64),
//		dex.WithMode(dex.Staggered),
//		dex.WithSeed(42),
//	)
//
// Churn it with Insert/Delete (or InsertBatch/DeleteBatch for
// Corollary 2's multi-operation steps), inspect per-step costs with
// History/LastStep/LastCost, and verify the paper's invariants at any
// point with CheckInvariants.
//
// Multiple independent observers — DHTs, metrics collectors, loggers —
// can watch one network through the typed event stream:
//
//	cancel := nw.Subscribe(func(ev dex.Event) {
//		if r, ok := ev.(dex.GraphRebuilt); ok {
//			log.Printf("rebuilt: p %d -> %d", r.OldP, r.NewP)
//		}
//	})
//	defer cancel()
//
// Concurrency contract: a Network is single-goroutine. All methods,
// including Subscribe and the delivery of events (which happens
// synchronously, on the goroutine that called the mutating method), must
// be serialized by the caller. Event callbacks must not mutate the
// network re-entrantly — a mutating call from inside a callback returns
// ErrReentrantOp instead of corrupting recovery state mid-step. For use
// from multiple goroutines, wrap the network in a Concurrent façade
// (NewConcurrent), which adds locking, an optional asynchronous event
// dispatcher, and consistent Snapshot reads.
package dex

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pcycle"
	"repro/internal/persist"
)

// Vertex is a virtual vertex of the p-cycle expander Z(p).
type Vertex = core.Vertex

// NodeID identifies a real node of the overlay network.
type NodeID = core.NodeID

// Graph is the adjacency-multiset overlay graph type; the value returned
// by (*Network).Graph is live and must be treated as read-only.
type Graph = graph.Graph

// Cycle is the virtual p-cycle expander Z(p).
type Cycle = pcycle.Cycle

// StepMetrics records the paper's cost measures (rounds, messages,
// topology changes) plus recovery metadata for one adversarial step.
type StepMetrics = core.StepMetrics

// Totals aggregates step metrics over a network's lifetime in O(1)
// memory (see (*Network).Totals).
type Totals = core.Totals

// InsertSpec names one batch-inserted node and its adversarial attach
// point (Corollary 2).
type InsertSpec = core.InsertSpec

// OpKind identifies the adversarial operation that triggered a step.
type OpKind = core.OpKind

// Operation kinds recorded in StepMetrics.Op.
const (
	OpInsert      = core.OpInsert
	OpDelete      = core.OpDelete
	OpBatchInsert = core.OpBatchInsert
	OpBatchDelete = core.OpBatchDelete
)

// RecoveryKind identifies which recovery path handled a step.
type RecoveryKind = core.RecoveryKind

// Recovery kinds recorded in StepMetrics.Recovery.
const (
	RecoveryType1   = core.RecoveryType1
	RecoveryInflate = core.RecoveryInflate
	RecoveryDeflate = core.RecoveryDeflate
)

// Sentinel errors. They are the same values the engine returns, so
// errors.Is works across the package boundary:
//
//	if errors.Is(err, dex.ErrDuplicateID) { ... }
var (
	// ErrUnknownNode reports an operation naming a node that is not in
	// the network.
	ErrUnknownNode = core.ErrUnknownNode
	// ErrDuplicateID reports an insertion reusing a live node id.
	ErrDuplicateID = core.ErrDuplicateID
	// ErrTooSmall reports a deletion that would shrink the network below
	// the 4-node floor of the paper's construction.
	ErrTooSmall = core.ErrTooSmall
	// ErrReentrantOp reports a mutating operation attempted while another
	// one is still in flight on the same network — which single-goroutine
	// discipline only makes possible from inside an event callback.
	// Re-entrant mutation would corrupt recovery state mid-step; decouple
	// with NewConcurrent + WithAsyncEvents instead.
	ErrReentrantOp = errors.New("dex: re-entrant operation during event delivery")
	// ErrClosed reports an operation on a Concurrent façade after Close.
	ErrClosed = errors.New("dex: network closed")
)

// Network is a DEX-maintained self-healing overlay. Construct it with
// New; the zero value is not usable.
type Network struct {
	eng   *core.Network
	audit AuditMode
	lastP int64

	subs     []subscriber
	subsSnap []subscriber // cached delivery snapshot; nil after (un)subscribe
	nextSub  int
	inOp     bool // a mutating operation (and its event deliveries) is in flight

	// forwardIdle is set by NewConcurrent, whose forwarder is the first
	// subscriber and never cancelled: it reports that the façade has no
	// subscriber of its own, so the forwarder would drop every event.
	forwardIdle func() bool

	// Durability (WithPersistence); nil/empty otherwise. seedBuf
	// captures the walk seeds each operation consumes, rec is the
	// reused WAL record — both so steady-state commits allocate
	// nothing.
	log     *persist.Log
	rec     persist.OpRecord
	seedBuf []uint64
}

// enterOp guards the engine against re-entrant mutation: events are
// delivered synchronously while an operation runs, so a callback
// calling Insert/Delete would re-enter the engine mid-step and corrupt
// its recovery state. Such calls fail fast with ErrReentrantOp.
//
// The full discipline, machine-enforced by dexvet's guarddiscipline
// analyzer (`make lint`): every exported *Network method that mutates
// engine state — writes a façade field, calls any method on the WAL
// (nw.log), or calls an engine method marked //dexvet:mutator in
// internal/core, whether directly or through unexported helpers — must
// call enterOp and pair it with a deferred exitOp in the same body.
// Read-only accessors take no guard. The deliberate exceptions
// (Subscribe, FreshID, LastRoot, Crash) each carry a
// //dexvet:allow guarddiscipline annotation whose reason documents why
// re-entrancy is safe there.
func (nw *Network) enterOp() error {
	if nw.inOp {
		return ErrReentrantOp
	}
	nw.inOp = true
	return nil
}

func (nw *Network) exitOp() { nw.inOp = false }

// New builds an initial DEX network, mapped onto Z(p0) for the smallest
// prime p0 in (4*n0, 8*n0) exactly as Section 4's initialization
// prescribes. Defaults (initial size 64, zeta 8, theta 1/64, staggered
// type-2 recovery, seed 1) match the paper's experiments; override them
// with options.
func New(opts ...Option) (*Network, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.err == nil && o.asyncBuf >= 0 {
		o.err = errors.New("dex: WithAsyncEvents requires NewConcurrent")
	}
	if o.err != nil {
		return nil, o.err
	}
	return newFromOptions(o)
}

// newFromOptions builds a network from parsed options (shared by New
// and NewConcurrent).
func newFromOptions(o options) (*Network, error) {
	if o.persistDir != "" {
		return newPersistent(o)
	}
	eng, err := core.New(o.initialSize, o.cfg)
	if err != nil {
		return nil, err
	}
	return wrapEngine(eng, o), nil
}

// wrapEngine wires a constructed engine into the façade's event
// plumbing.
func wrapEngine(eng *core.Network, o options) *Network {
	nw := &Network{eng: eng, audit: o.audit, lastP: eng.P()}
	eng.SetTransferObserver(func(x Vertex, from, to NodeID) {
		// Guard before constructing the event: boxing it into the Event
		// interface allocates at this call site even when publish would
		// drop it, and this observer fires once per migrated vertex on
		// the steady-state recovery path.
		if !nw.listened() {
			return
		}
		nw.publish(VertexTransferred{Vertex: x, From: from, To: to})
	})
	eng.SetRebuildObserver(func(pNew int64) {
		if nw.listened() {
			nw.publish(GraphRebuilt{OldP: nw.lastP, NewP: pNew})
		}
		nw.lastP = pNew
	})
	if o.edgeEvents {
		// The engine copies a step's raw edge log only when listened
		// says an EdgesChanged event would reach a subscriber.
		eng.SetEdgeLogObserver(nw.publishEdges)
		eng.SetEdgeDemand(nw.listened)
	}
	return nw
}

// afterOp publishes the stagger edge events of the step that just ran
// and runs the configured per-operation audit tier (WithAuditMode).
func (nw *Network) afterOp() error {
	st := nw.eng.LastStep()
	if st.StaggerStarted {
		nw.publish(StaggerStarted{Step: st.Step, N: st.N, P: st.P})
	}
	if st.StaggerFinished {
		nw.publish(StaggerFinished{Step: st.Step, N: st.N, P: st.P})
	}
	if err := nw.eng.Audit(nw.audit); err != nil {
		return fmt.Errorf("dex: %s audit after %s: %w", nw.audit, st.Op, err)
	}
	return nil
}

// --- churn operations ------------------------------------------------------

// Insert adds node id attached at node attach (the adversary picks
// both) and runs recovery. Node ids are non-negative: Insert refuses a
// negative id with an error (InsertBatch refuses a batch holding one),
// because the engine reserves negative values for "no node". It returns
// ErrDuplicateID or ErrUnknownNode on other illegal arguments.
func (nw *Network) Insert(id, attach NodeID) error {
	if err := nw.enterOp(); err != nil {
		return err
	}
	defer nw.exitOp()
	nw.beginPersist()
	if err := nw.eng.Insert(id, attach); err != nil {
		return err
	}
	if err := nw.commitPersist(core.OpInsert, id, attach, nil, nil); err != nil {
		return err
	}
	return nw.afterOp()
}

// Delete removes node id and runs recovery. It returns ErrUnknownNode
// for absent ids and ErrTooSmall when the network is at its minimum
// size.
func (nw *Network) Delete(id NodeID) error {
	if err := nw.enterOp(); err != nil {
		return err
	}
	defer nw.exitOp()
	nw.beginPersist()
	if err := nw.eng.Delete(id); err != nil {
		return err
	}
	if err := nw.commitPersist(core.OpDelete, id, 0, nil, nil); err != nil {
		return err
	}
	return nw.afterOp()
}

// InsertBatch performs one adversarial step inserting all specs at once
// (Corollary 2; at most a constant number of members may attach to any
// single node).
func (nw *Network) InsertBatch(specs []InsertSpec) error {
	if err := nw.enterOp(); err != nil {
		return err
	}
	defer nw.exitOp()
	nw.beginPersist()
	if err := nw.eng.InsertBatch(specs); err != nil {
		return err
	}
	if err := nw.commitPersist(core.OpBatchInsert, 0, 0, specs, nil); err != nil {
		return err
	}
	return nw.afterOp()
}

// DeleteBatch performs one adversarial step deleting all ids at once.
// The batch must leave the remainder connected and every deleted node
// with a surviving neighbor, per the paper's deletion model.
func (nw *Network) DeleteBatch(ids []NodeID) error {
	if err := nw.enterOp(); err != nil {
		return err
	}
	defer nw.exitOp()
	nw.beginPersist()
	if err := nw.eng.DeleteBatch(ids); err != nil {
		return err
	}
	if err := nw.commitPersist(core.OpBatchDelete, 0, 0, nil, ids); err != nil {
		return err
	}
	return nw.afterOp()
}

// --- inspection ------------------------------------------------------------

// Size returns the current number of real nodes n.
func (nw *Network) Size() int { return nw.eng.Size() }

// P returns the current p-cycle modulus.
func (nw *Network) P() int64 { return nw.eng.P() }

// Cycle returns the current virtual graph Z(p). Treat as read-only.
func (nw *Network) Cycle() *Cycle { return nw.eng.Cycle() }

// Graph returns the live overlay graph G_t. Treat as read-only. The
// engine derives the overlay from its virtual mapping and keeps a graph
// of it only once something observes it (or while its own walks find
// one cheaper than deriving rows): the first call materializes that
// view, and from then on the same graph is kept and edited with
// every edge change, so it is current between operations and also when
// read inside a mid-operation event such as VertexTransferred. The
// first call, and any call after an edge change (which compacts the
// view's storage so its layout does not depend on when it was first
// observed), cost time linear in the overlay's size; a call with no
// edge change since the last costs O(1). EdgesChanged events and a
// Concurrent's Snapshot read the overlay without keeping a view, so a
// network that only they observe keeps running on derived reads.
func (nw *Network) Graph() *Graph { return nw.eng.Graph() }

// Nodes returns the current node ids in ascending order.
func (nw *Network) Nodes() []NodeID { return nw.eng.Nodes() }

// Load returns the number of virtual vertices node u simulates
// (current p-cycle plus, during staggering, the next one).
func (nw *Network) Load(u NodeID) int { return nw.eng.Load(u) }

// MaxLoad returns the maximum load over all nodes; Lemma 9 bounds it by
// 4*zeta.
func (nw *Network) MaxLoad() int { return nw.eng.MaxLoad() }

// Zeta returns the configured maximum cloud size (see WithZeta); Lemma 9
// bounds every node's load by 4*Zeta().
func (nw *Network) Zeta() int { return nw.eng.Zeta() }

// OwnerOf returns the node simulating virtual vertex x of the current
// p-cycle.
func (nw *Network) OwnerOf(x Vertex) NodeID { return nw.eng.OwnerOf(x) }

// SomeVertexOf exposes one (the smallest) vertex simulated at u; ok is
// false for unknown nodes.
func (nw *Network) SomeVertexOf(u NodeID) (x Vertex, ok bool) { return nw.eng.SomeVertexOf(u) }

// Coordinator returns the node currently simulating vertex 0
// (Algorithm 4.7's rebuild coordinator).
func (nw *Network) Coordinator() NodeID { return nw.eng.Coordinator() }

// SpareCount returns |Spare| = #{u : load(u) >= 2}, the coordinator's
// inflation counter.
func (nw *Network) SpareCount() int { return nw.eng.SpareCount() }

// LowCount returns |Low| = #{u : load(u) <= 2*zeta}, the coordinator's
// deflation counter.
func (nw *Network) LowCount() int { return nw.eng.LowCount() }

// Rebuilding reports whether a staggered type-2 rebuild is in flight,
// and its phase (0 when idle).
func (nw *Network) Rebuilding() (active bool, phase int) { return nw.eng.Rebuilding() }

// Dist0 returns the virtual hop distance from vertex x to vertex 0 on
// the coordinator's BFS tree (the compact-routing metric the DHT uses).
func (nw *Network) Dist0(x Vertex) int { return nw.eng.Dist0(x) }

// History returns per-step metrics since creation. Under WithHistoryCap
// only the most recent steps are retained; Totals keeps exact lifetime
// aggregates regardless.
func (nw *Network) History() []StepMetrics { return nw.eng.History() }

// Totals returns O(1)-memory lifetime aggregates of the per-step
// metrics (sums, maxima, and recovery-event counts), unaffected by
// WithHistoryCap.
func (nw *Network) Totals() Totals { return nw.eng.Totals() }

// LastStep returns the metrics of the most recent step (zero value
// before any churn).
func (nw *Network) LastStep() StepMetrics { return nw.eng.LastStep() }

// LastCost returns the most recent step's cost triple, satisfying the
// Maintainer contract.
func (nw *Network) LastCost() Cost {
	st := nw.eng.LastStep()
	return Cost{Rounds: st.Rounds, Messages: st.Messages, TopologyChanges: st.TopologyChanges}
}

// OrphanRescues returns how many times the pathological drop-time
// rescue path ran; zero in all normal operation.
func (nw *Network) OrphanRescues() int { return nw.eng.OrphanRescues() }

// FreshID returns a never-used node id and advances the internal
// counter; adversaries may instead supply their own ids to Insert.
// Safe from event callbacks: the counter bump touches no recovery
// state and is not WAL-recorded (replay re-derives it from the ids it
// replays), so it deliberately skips the re-entrancy guard.
//
//dexvet:allow guarddiscipline FreshID only bumps the monotonic id counter — no recovery state, no WAL record; callbacks may mint ids for a later, non-re-entrant Insert
func (nw *Network) FreshID() NodeID { return nw.eng.FreshID() }

// SampleNode returns a uniformly random live node id in O(1), drawing
// from rng. Unlike Nodes it performs no sorting or allocation, so
// adversaries and load generators can pick churn targets on
// million-node networks without a per-step O(n) scan.
//
// RNG ownership: rng is caller-owned and is advanced by this call. A
// *rand.Rand is not safe for concurrent use, so under the Concurrent
// façade either keep a per-goroutine rng, or use (*Concurrent).Sample,
// which draws from a façade-owned source under the façade's lock.
func (nw *Network) SampleNode(rng *rand.Rand) NodeID { return nw.eng.SampleNode(rng) }

// Close flushes any staged WAL batch and closes the log, leaving the
// directory resumable (WithPersistence). A non-persistent network
// holds nothing to release. Close takes the re-entrancy guard: closing
// from an event callback would flush a half-applied operation's state
// into the WAL, the same hazard Checkpoint guards against. Such calls
// fail with ErrReentrantOp.
func (nw *Network) Close() error {
	if err := nw.enterOp(); err != nil {
		return err
	}
	defer nw.exitOp()
	if nw.log != nil {
		return nw.log.Close()
	}
	return nil
}

// CheckInvariants mechanically verifies every structural invariant of
// the paper (balanced mapping, load bounds, contraction-consistent
// edges, stagger bookkeeping) and returns the first violation.
func (nw *Network) CheckInvariants() error { return nw.eng.CheckInvariants() }

// Audit runs the given invariant-checking tier immediately (the same
// check WithAuditMode schedules after every operation): AuditSampled
// re-verifies the nodes touched by the most recent operation plus a
// random sample in o(n); AuditFull equals CheckInvariants.
func (nw *Network) Audit(mode AuditMode) error { return nw.eng.Audit(mode) }

// RecomputeGraph rebuilds the overlay from the virtual structure from
// scratch and returns it — the full-rebuild oracle. The incrementally
// maintained Graph() must equal it at all times; the differential test
// suite and the ChurnFullRebuild benchmark are built on this method. It
// never mutates the network.
func (nw *Network) RecomputeGraph() *Graph { return nw.eng.RecomputeGraph() }
