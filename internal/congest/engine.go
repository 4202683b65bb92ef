// Package congest simulates the paper's distributed computing model: a
// synchronous message-passing network (CONGEST) in which, each round,
// every node may send one O(log n)-bit message along each incident edge,
// messages are neither lost nor corrupted, and local computation is free
// (Section 2).
//
// The engine executes one goroutine per active node per round and joins
// them with a WaitGroup, so node programs really run concurrently; the
// round barrier and deterministic inbox ordering make runs reproducible
// for a fixed seed. Every delivered message increments the message
// counter, every barrier the round counter - these counted quantities are
// the paper's complexity measures.
//
// Two protocols used by DEX are provided in protocols.go: flood/echo
// aggregation (Algorithm 4.4's computeSpare/computeLow) and token random
// walks (the type-1 recovery workhorse). Each has an engine-executed
// form (FloodAggregateEngine, RandomWalkEngine) and a sequential direct
// form that computes the same outcome, rounds and messages without the
// engine: a walk replays the token's seeded hops (RandomWalkDirect), a
// flood evaluates the PIF schedule's closed form over one BFS
// (FloodAggregate, (*Flood).AggregateAt). Differential tests and fuzzers
// prove each pair equal field for field, which is what lets the engine
// run only the direct forms without losing fidelity; the engine forms
// are their references.
package congest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// NodeID aliases the graph node identifier.
type NodeID = graph.NodeID

// Message is a CONGEST message. Payload is limited to a handful of words,
// consistent with O(log n)-bit messages.
type Message struct {
	From, To NodeID
	Kind     string
	A, B, C  int64
}

// Ctx is the per-node API available to a Program during one activation.
type Ctx struct {
	ID     NodeID
	Round  int
	engine *Engine
	out    []Message
}

// Neighbors returns the node's current distinct neighbors in ascending
// order (local knowledge only).
func (c *Ctx) Neighbors() []NodeID { return c.engine.topo.Neighbors(c.ID) }

// RandomNeighborStep picks a multiplicity-weighted neighbor using the
// random word r, excluding exclude (-1 to disable): the zero-allocation
// walk-hop primitive.
func (c *Ctx) RandomNeighborStep(exclude NodeID, r uint64) (NodeID, bool) {
	return c.engine.topo.RandomNeighborStep(c.ID, exclude, r)
}

// Send enqueues a message to a neighbor for delivery next round. Sending
// to a non-neighbor is a protocol bug and panics.
func (c *Ctx) Send(to NodeID, kind string, a, b, d int64) {
	if to != c.ID && !c.engine.topo.HasEdge(c.ID, to) {
		panic(fmt.Sprintf("congest: %d sending to non-neighbor %d", c.ID, to))
	}
	c.out = append(c.out, Message{From: c.ID, To: to, Kind: kind, A: a, B: b, C: d})
}

// Program is a node's message handler; it is invoked each round the node
// has mail (and at round 0 for initiators).
type Program func(ctx *Ctx, inbox []Message)

// Engine runs programs over a fixed topology snapshot.
type Engine struct {
	topo     *graph.Graph
	programs map[NodeID]Program

	// Rounds counts executed synchronous rounds; Messages counts
	// delivered messages.
	Rounds   int
	Messages int
}

// NewEngine creates an engine over the given topology. The graph is used
// read-only during Run.
func NewEngine(topo *graph.Graph) *Engine {
	return &Engine{topo: topo, programs: make(map[NodeID]Program)}
}

// SetProgram installs the handler for node id.
func (e *Engine) SetProgram(id NodeID, p Program) { e.programs[id] = p }

// SetUniformProgram installs p on every node of the topology.
func (e *Engine) SetUniformProgram(p Program) {
	for _, id := range e.topo.Nodes() {
		e.programs[id] = p
	}
}

// Run executes rounds until no messages are in flight or maxRounds is
// reached. initiators are activated in round 0 with empty inboxes.
// It returns the number of rounds executed.
func (e *Engine) Run(initiators []NodeID, maxRounds int) int {
	inflight := make(map[NodeID][]Message)
	active := make([]NodeID, len(initiators))
	copy(active, initiators)
	start := e.Rounds
	for round := 0; ; round++ {
		if len(active) == 0 && len(inflight) == 0 {
			break
		}
		if round >= maxRounds {
			break
		}
		e.Rounds++
		// Determine this round's activations: initiators (round 0) plus
		// every node with mail.
		var ids []NodeID
		if round == 0 {
			ids = append(ids, active...)
		}
		for id := range inflight {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ids = dedupe(ids)

		ctxs := make([]*Ctx, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			prog := e.programs[id]
			if prog == nil {
				continue
			}
			inbox := inflight[id]
			sort.Slice(inbox, func(a, b int) bool {
				ma, mb := inbox[a], inbox[b]
				if ma.From != mb.From {
					return ma.From < mb.From
				}
				if ma.Kind != mb.Kind {
					return ma.Kind < mb.Kind
				}
				if ma.A != mb.A {
					return ma.A < mb.A
				}
				return ma.B < mb.B
			})
			ctx := &Ctx{ID: id, Round: round, engine: e}
			ctxs[i] = ctx
			wg.Add(1)
			go func(p Program, c *Ctx, in []Message) {
				defer wg.Done()
				p(c, in)
			}(prog, ctx, inbox)
		}
		wg.Wait()

		next := make(map[NodeID][]Message)
		for _, ctx := range ctxs {
			if ctx == nil {
				continue
			}
			for _, m := range ctx.out {
				next[m.To] = append(next[m.To], m)
				e.Messages++
			}
		}
		inflight = next
		active = nil
	}
	return e.Rounds - start
}

func dedupe(ids []NodeID) []NodeID {
	out := ids[:0]
	var prev NodeID = -1 << 62
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}
