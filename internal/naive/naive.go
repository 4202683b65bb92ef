// Package naive implements Section 3's two strawman algorithms, used by
// the NAIVE experiment to show why DEX's design is necessary:
//
//   - Flooding: every change is flooded to all nodes, each of which holds
//     the full topology and locally recomputes the ideal expander.
//     Correct and deterministic, but Theta(n) messages per step and up to
//     Theta(n) topology changes.
//
//   - GlobalKnowledge: one node p tracks the whole topology and directs
//     repairs with O(1) messages per ordinary step - but when p itself
//     is deleted, Omega(n) words of state must be handed to a successor.
//
// Both maintain the same centrally-computed balanced p-cycle topology as
// DEX would (so expansion is ideal); only the distributed costs differ -
// which is precisely the comparison the paper's Section 3 makes.
package naive

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/pcycle"
	"repro/internal/primes"
)

// Cost mirrors the per-operation complexity measures.
type Cost struct {
	Rounds          int
	Messages        int
	TopologyChanges int
}

// Kind selects the strawman variant.
type Kind int

// Variants.
const (
	Flooding Kind = iota
	GlobalKnowledge
)

// Network is a centrally recomputed p-cycle overlay with strawman cost
// accounting.
type Network struct {
	kind   Kind
	ids    []graph.NodeID
	idx    map[graph.NodeID]int
	z      *pcycle.Cycle
	g      *graph.Graph
	leader graph.NodeID // the global-knowledge node
	nextID graph.NodeID
	last   Cost
}

// New builds the initial overlay.
func New(n0 int, kind Kind) (*Network, error) {
	if n0 < 4 {
		return nil, fmt.Errorf("naive: need n0 >= 4, got %d", n0)
	}
	nw := &Network{kind: kind, idx: make(map[graph.NodeID]int), nextID: graph.NodeID(n0)}
	for i := 0; i < n0; i++ {
		nw.ids = append(nw.ids, graph.NodeID(i))
	}
	nw.leader = 0
	nw.recompute()
	nw.last = Cost{}
	return nw, nil
}

// recompute rebuilds the ideal balanced p-cycle mapping centrally.
func (nw *Network) recompute() int {
	n := len(nw.ids)
	p, ok := primes.FirstPrimeIn(int64(4*n), int64(8*n))
	if !ok {
		panic("naive: no prime")
	}
	if nw.z == nil || nw.z.P() != p {
		z, err := pcycle.New(p)
		if err != nil {
			panic(err)
		}
		nw.z = z
	}
	nw.idx = make(map[graph.NodeID]int, n)
	for i, id := range nw.ids {
		nw.idx[id] = i
	}
	owner := func(x pcycle.Vertex) graph.NodeID {
		return nw.ids[int(x*int64(n)/p)]
	}
	old := nw.g
	fresh := graph.New()
	for _, id := range nw.ids {
		fresh.AddNode(id)
	}
	for x := int64(0); x < p; x++ {
		fresh.AddEdge(owner(x), owner(nw.z.Succ(x)))
		if y := nw.z.Inv(x); y >= x {
			fresh.AddEdge(owner(x), owner(y))
		}
	}
	changes := fresh.NumEdges()
	if old != nil {
		changes += old.NumEdges()
	}
	nw.g = fresh
	return changes
}

// Size, Graph, Nodes, FreshID, LastCost implement the harness interface.
func (nw *Network) Size() int             { return len(nw.ids) }
func (nw *Network) Graph() *graph.Graph   { return nw.g }
func (nw *Network) Nodes() []graph.NodeID { return nw.g.Nodes() }
func (nw *Network) LastCost() Cost        { return nw.last }

// FreshID returns an unused id.
func (nw *Network) FreshID() graph.NodeID {
	id := nw.nextID
	nw.nextID++
	return id
}

// Insert adds id; attach is the adversary's introduction point (only
// used for validation - the recompute is global either way).
func (nw *Network) Insert(id, attach graph.NodeID) error {
	if _, dup := nw.idx[id]; dup {
		return fmt.Errorf("naive: duplicate id %d", id)
	}
	if _, ok := nw.idx[attach]; !ok {
		return fmt.Errorf("naive: unknown introducer %d", attach)
	}
	if id >= nw.nextID {
		nw.nextID = id + 1
	}
	nw.ids = append(nw.ids, id)
	nw.charge(nw.recompute(), false)
	return nil
}

// Delete removes id.
func (nw *Network) Delete(id graph.NodeID) error {
	i, ok := nw.idx[id]
	if !ok {
		return fmt.Errorf("naive: unknown id %d", id)
	}
	if len(nw.ids) <= 4 {
		return fmt.Errorf("naive: refusing to shrink below 4")
	}
	nw.ids[i] = nw.ids[len(nw.ids)-1]
	nw.ids = nw.ids[:len(nw.ids)-1]
	leaderDied := id == nw.leader
	if leaderDied {
		nw.leader = nw.ids[0]
	}
	nw.charge(nw.recompute(), leaderDied)
	return nil
}

// charge applies the variant's cost model for one step.
func (nw *Network) charge(topoChanges int, leaderDied bool) {
	n := len(nw.ids)
	diam := 2 // expander diameter ~ O(log n); flood rounds measured exactly
	if nw.kind == Flooding {
		r, m := congest.BroadcastCost(nw.g, nw.g.Nodes()[0])
		nw.last = Cost{Rounds: r + diam, Messages: m, TopologyChanges: topoChanges}
		return
	}
	// GlobalKnowledge: O(1) notification to the leader plus directed
	// repair; leader death transfers Theta(n) state words.
	nw.last = Cost{Rounds: 3, Messages: 6, TopologyChanges: 8}
	if leaderDied {
		nw.last.Messages += 2 * n // full-topology state handover
		nw.last.Rounds += n / 8   // pipelined over a constant-degree link
		nw.last.TopologyChanges = topoChanges
	}
}
