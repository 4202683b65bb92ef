package dex

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Event is a typed notification about a structural change of the
// network. Concrete types: VertexTransferred, GraphRebuilt,
// StaggerStarted, StaggerFinished, EdgesChanged. Subscribers switch on
// the dynamic type:
//
//	nw.Subscribe(func(ev dex.Event) {
//		switch e := ev.(type) {
//		case dex.VertexTransferred:
//			// vertex e.Vertex moved e.From -> e.To
//		case dex.GraphRebuilt:
//			// modulus changed e.OldP -> e.NewP
//		}
//	})
type Event interface{ event() }

// VertexTransferred reports that current-cycle virtual vertex Vertex
// migrated from node From to node To during recovery. A DHT migrates the
// vertex's key/value items on this event (Section 4.4.4).
type VertexTransferred struct {
	Vertex Vertex
	From   NodeID
	To     NodeID
}

// GraphRebuilt reports that the virtual graph was replaced by a type-2
// inflation or deflation: the modulus changed from OldP to NewP. Hash
// spaces keyed on the modulus must re-home on this event.
type GraphRebuilt struct {
	OldP int64
	NewP int64
}

// StaggerStarted reports that the coordinator opened a staggered type-2
// rebuild (Algorithm 4.7) on the step with the given metrics snapshot.
type StaggerStarted struct {
	Step int   // 1-based step index in History
	N    int   // network size after the step
	P    int64 // modulus after the step (still the old cycle's)
}

// StaggerFinished reports that a staggered rebuild committed: the new
// cycle is live and P is the new modulus. It is always preceded by the
// corresponding GraphRebuilt event.
type StaggerFinished struct {
	Step int
	N    int
	P    int64
}

// EdgesChanged reports the net overlay edge changes of one adversarial
// step as a batched diff, published once per mutating operation and
// only when the network was built WithEdgeEvents(true). Deltas is
// sorted by (U, V) and contains no zero entries; edges added and
// removed within the same step cancel out, and a step whose changes all
// cancel publishes none. Replaying every EdgesChanged event onto a copy
// of the overlay keeps the copy's edge multiset identical to the live
// graph — including across type-2 rebuilds, which arrive as exactly the
// edges that changed. Within one step it is delivered after every
// VertexTransferred/GraphRebuilt event and before
// StaggerStarted/StaggerFinished. The engine hands over the step's raw
// edge log, and the goroutine that delivers the event nets it: the
// mutating goroutine for synchronous subscribers, the dispatcher under
// WithAsyncEvents, which receives an operation's events together when
// the operation returns.
type EdgesChanged struct {
	Step   int // 1-based step index, matching StepMetrics.Step
	Deltas []EdgeDelta
}

// EdgeDelta is one entry of an EdgesChanged batch: the multiplicity of
// the undirected overlay edge {U,V} changed by Delta (U <= V).
type EdgeDelta = graph.EdgeDelta

// edgeLog is a step's raw edge log on its way to a Concurrent's
// subscribers, which the façade nets into the step's EdgesChanged where
// it delivers it (Concurrent.deliver), so no subscriber ever receives
// one.
type edgeLog struct {
	step int
	log  []EdgeDelta
}

// netEdges nets a step's raw edge log in place into its EdgesChanged
// event; ok is false when the step's changes all cancel, and then
// nothing is published.
func netEdges(step int, log []EdgeDelta) (ev EdgesChanged, ok bool) {
	d := core.NetLog(log)
	return EdgesChanged{Step: step, Deltas: d}, len(d) > 0
}

// publishEdges publishes a step's edge diff from the raw log the engine
// hands over, netted on the goroutine that delivers it. When the only
// subscriber is a Concurrent's forwarder (forwardIdle is set), the log
// goes to it raw: under WithAsyncEvents the dispatcher nets it. Any
// other subscriber is called on this goroutine, so the log is netted
// here.
func (nw *Network) publishEdges(step int, log []EdgeDelta) {
	if nw.forwardIdle != nil && len(nw.subs) == 1 {
		nw.publish(edgeLog{step: step, log: log})
		return
	}
	if ev, ok := netEdges(step, log); ok {
		nw.publish(ev)
	}
}

func (VertexTransferred) event() {}
func (GraphRebuilt) event()      {}
func (StaggerStarted) event()    {}
func (StaggerFinished) event()   {}
func (EdgesChanged) event()      {}
func (edgeLog) event()           {}

// subscriber pairs a callback with a registration id so cancellation
// survives slice reshuffling.
type subscriber struct {
	id int
	fn func(Event)
}

// Subscribe registers fn to receive every future event and returns a
// cancel function that removes the subscription (idempotent). Any
// number of subscribers may watch one network; they are invoked
// synchronously, in registration order, on the goroutine performing the
// mutation that produced the event. Callbacks must not mutate the
// network re-entrantly.
//
// Subscribe (and the returned cancel) may be called from inside a
// callback: publish iterates a pinned snapshot (subsSnap), so editing
// the registry mid-delivery is safe by design and deliberately does
// not take the enterOp guard — it touches only the subscriber list,
// never the engine or the WAL.
//
//dexvet:allow guarddiscipline Subscribe only edits the subscriber registry; publish iterates a pinned snapshot, so re-entrant registration is safe by design
func (nw *Network) Subscribe(fn func(Event)) (cancel func()) {
	id := nw.nextSub
	nw.nextSub++
	nw.subs = append(nw.subs, subscriber{id: id, fn: fn})
	nw.subsSnap = nil
	return func() {
		for i, s := range nw.subs {
			if s.id == id {
				nw.subs = append(nw.subs[:i], nw.subs[i+1:]...)
				nw.subsSnap = nil
				return
			}
		}
	}
}

// Subscribers returns the number of live subscriptions.
func (nw *Network) Subscribers() int { return len(nw.subs) }

// listened reports whether an event published now would reach a
// callback: a subscriber other than an idle Concurrent forwarder (see
// forwardIdle). The engine observers ask before they build an event,
// since boxing one into Event allocates even when nobody receives it.
func (nw *Network) listened() bool {
	switch len(nw.subs) {
	case 0:
		return false
	case 1:
		return nw.forwardIdle == nil || !nw.forwardIdle()
	}
	return true
}

// publish delivers ev to every subscriber in registration order. It
// pins the active round's snapshot in a local before iterating: a
// callback that subscribes or cancels mid-delivery nils/replaces the
// cached nw.subsSnap, and the pin guarantees the in-flight round keeps
// delivering to exactly the set that was subscribed when the event
// fired — late subscribers see only subsequent events, cancelled ones
// finish the round they were part of. The snapshot is cached and only
// rebuilt after Subscribe/cancel, keeping the per-event hot path (one
// event per migrated vertex) allocation-free.
func (nw *Network) publish(ev Event) {
	if !nw.listened() {
		return
	}
	if nw.subsSnap == nil {
		nw.subsSnap = append([]subscriber(nil), nw.subs...)
	}
	snap := nw.subsSnap
	for _, s := range snap {
		s.fn(ev)
	}
}
