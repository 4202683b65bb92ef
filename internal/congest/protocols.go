package congest

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// SplitMix64 advances a deterministic PRNG state and returns the new
// state and the word it mixes from it. Walk tokens carry the state so the
// engine-executed and direct walks make identical choices, and the DEX
// engine's virtual walks draw from the same stream.
func SplitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// WalkResult reports the outcome of a token random walk.
type WalkResult struct {
	End     graph.NodeID // final node of the token
	EndSlot int32        // End's slot (-1 when the start is absent)
	Hit     bool         // whether the stop predicate was satisfied
	Steps   int          // edges traversed (= messages = rounds)
}

// RandomWalkDirect performs a multiplicity-weighted token walk of at most
// maxLen steps starting at start; it stops early when stop(node, slot) is
// true for the node the token reaches (the start node itself is tested
// first, costing no messages). exclude (-1 to disable) is never stepped
// onto - the paper excludes the freshly inserted node from insertion walks.
//
// The walk is slot-native: the start's id→slot lookup happens once, and
// every subsequent hop picks on the current node's run (graph.Pick, by
// way of RandomNeighborStepAt) and reads the neighbor's slot from the
// chosen cell, so the stop predicate can probe slot-indexed columnar
// state without ever touching the id→slot map. A start node absent from
// the graph yields a zero-step miss without calling stop.
func RandomWalkDirect(g *graph.Graph, start graph.NodeID, exclude graph.NodeID, maxLen int, seed uint64, stop func(graph.NodeID, int32) bool) WalkResult {
	cs, ok := g.SlotOf(start)
	if !ok {
		return WalkResult{End: start, EndSlot: -1}
	}
	return RandomWalkDirectAt(graphRows{g}, start, cs, exclude, maxLen, seed, stop)
}

// Rows is the adjacency a token walk hops over. Step makes one hop from
// node u at slot s with the random word r, and must choose exactly as
// graph.Pick chooses on u's run: the distinct neighbors in ascending id,
// each weighted by its multiplicity (u's own cell by its self-loops),
// exclude skipped, and the pick r % total. It returns the chosen node,
// its slot, and false when u has no neighbor but exclude.
type Rows interface {
	Step(u graph.NodeID, s int32, exclude graph.NodeID, r uint64) (graph.NodeID, int32, bool)
}

// graphRows walks a graph's arena runs.
type graphRows struct{ g *graph.Graph }

// Step is (*graph.Graph).RandomNeighborStepAt.
//
//dexvet:noalloc
func (g graphRows) Step(_ graph.NodeID, s int32, exclude graph.NodeID, r uint64) (graph.NodeID, int32, bool) {
	return g.g.RandomNeighborStepAt(s, exclude, r)
}

// RandomWalkDirectAt is RandomWalkDirect over any row source, with the
// start's slot already resolved; startSlot must be start's live slot.
// The DEX engine walks rows it derives from its virtual mapping, which
// make the arena's exact pick (see Rows).
func RandomWalkDirectAt(g Rows, start graph.NodeID, startSlot int32, exclude graph.NodeID, maxLen int, seed uint64, stop func(graph.NodeID, int32) bool) WalkResult {
	if stop(start, startSlot) {
		return WalkResult{End: start, EndSlot: startSlot, Hit: true, Steps: 0}
	}
	cur, cs := start, startSlot
	state := seed
	for s := 1; s <= maxLen; s++ {
		var r uint64
		state, r = SplitMix64(state)
		next, ns, ok := g.Step(cur, cs, exclude, r)
		if !ok {
			return WalkResult{End: cur, EndSlot: cs, Hit: false, Steps: s - 1}
		}
		cur, cs = next, ns
		if stop(cur, cs) {
			return WalkResult{End: cur, EndSlot: cs, Hit: true, Steps: s}
		}
	}
	return WalkResult{End: cur, EndSlot: cs, Hit: false, Steps: maxLen}
}

// RandomWalkEngine executes the identical walk as a token-forwarding
// program on the engine: one message per step, one activation per round.
// Intended for the equivalence tests and demonstrations; the churn
// experiments use RandomWalkDirect.
func RandomWalkEngine(e *Engine, start graph.NodeID, exclude graph.NodeID, maxLen int, seed uint64, stop func(graph.NodeID, int32) bool) WalkResult {
	var (
		mu  sync.Mutex
		res WalkResult
	)
	const tokenKind = "walk"
	// The engine activates programs by id, so this path re-resolves the
	// slot per activation; it exists for equivalence tests and demos, not
	// the recovery hot path.
	slotOf := func(u graph.NodeID) int32 {
		s, _ := e.topo.SlotOf(u)
		return s
	}
	prog := func(ctx *Ctx, inbox []Message) {
		for _, m := range inbox {
			if m.Kind != tokenKind {
				continue
			}
			steps := m.B
			state := uint64(m.A)
			mu.Lock()
			res.End = ctx.ID
			res.Steps = int(steps)
			mu.Unlock()
			if stop(ctx.ID, slotOf(ctx.ID)) {
				mu.Lock()
				res.Hit = true
				mu.Unlock()
				return
			}
			if int(steps) >= maxLen {
				return
			}
			ns, r := SplitMix64(state)
			next, ok := ctx.RandomNeighborStep(exclude, r)
			if !ok {
				return
			}
			mu.Lock()
			res.End = next
			res.Steps = int(steps) + 1
			mu.Unlock()
			ctx.Send(next, tokenKind, int64(ns), steps+1, 0)
		}
	}
	e.SetUniformProgram(prog)
	ss, ok := e.topo.SlotOf(start)
	if !ok {
		return WalkResult{End: start, EndSlot: -1}
	}
	if stop(start, ss) {
		return WalkResult{End: start, EndSlot: ss, Hit: true, Steps: 0}
	}
	// Bootstrap: the start node behaves as if it received the token with
	// step count 0; emulate by a self-delivered round-0 activation.
	e.SetProgram(start, func(ctx *Ctx, inbox []Message) {
		if ctx.Round == 0 && len(inbox) == 0 {
			ns, r := SplitMix64(seed)
			next, ok := ctx.RandomNeighborStep(exclude, r)
			if !ok {
				return
			}
			mu.Lock()
			res.End = next
			res.Steps = 1
			mu.Unlock()
			ctx.Send(next, tokenKind, int64(ns), 1, 0)
			return
		}
		prog(ctx, inbox)
	})
	e.Run([]graph.NodeID{start}, maxLen+2)
	mu.Lock()
	defer mu.Unlock()
	if res.Steps == 0 && !res.Hit {
		res.End = start
	}
	// Hit or not, the walk ends wherever the token stopped.
	res.EndSlot = slotOf(res.End)
	return res
}

// AggregateResult is the outcome of a flood/echo aggregation
// (Algorithm 4.4, computeSpare / computeLow / network size).
type AggregateResult struct {
	Sum      int64 // sum of value(u) over all reachable nodes
	Count    int64 // number of reachable nodes (the network size n)
	Rounds   int
	Messages int
}

// FloodAggregate runs the classic propagation-of-information-with-feedback
// (PIF) protocol from initiator over the topology, summing value(u)
// across the nodes it reaches and counting them (the network size). It
// is a thin wrapper over the direct form (*Flood).AggregateAt with
// throwaway scratch, whose doc states the recurrence of the engine's
// schedule and the closed form it evaluates; FloodAggregateEngine is
// the message-passing execution it is proven equal to, field for field.
// An initiator absent from the topology reports the engine's single
// empty round.
func FloodAggregate(topo *graph.Graph, initiator graph.NodeID, value func(graph.NodeID) int64) AggregateResult {
	s, ok := topo.SlotOf(initiator)
	if !ok {
		return AggregateResult{Rounds: 1}
	}
	var f Flood
	var sum int64
	res := f.AggregateAt(topo, initiator, s, func(u graph.NodeID, _ int32) bool {
		sum += value(u)
		return false
	})
	res.Sum = sum
	return res
}

// Flood is the reusable scratch of the direct flood/echo form: each
// reached slot's BFS level and the BFS queue, 8 bytes per graph slot,
// grown to the graph's slot table on demand and left zeroed between
// floods, so a warm Flood floods without allocating.
type Flood struct {
	lvl   []int32 // hop distance from the initiator plus one; 0 = not reached
	queue []int32 // reached slots in BFS order
}

// reserve sizes the scratch to n slots; new levels arrive zeroed.
func (f *Flood) reserve(n int) {
	if len(f.lvl) < n {
		f.lvl = append(f.lvl, make([]int32, n-len(f.lvl))...)
		f.queue = make([]int32, len(f.lvl))
	}
}

// AggregateAt computes exactly what FloodAggregateEngine reports for a
// PIF flood from initiator (whose live slot is slot), sequentially, with
// one BFS over the arena's slots. Sum is the number of reached nodes u
// for which count(u, slot(u)) holds — computeSpare and computeLow count
// nodes, so DEX's prebuilt walk stop predicates serve as counts
// unchanged; FloodAggregate folds general values through the same
// callback. Neighbor slots and ids come straight from the arena cells
// (RunAt), so no node is ever resolved by id.
//
// The engine's schedule has a closed form. Let dist(v) be v's hop
// distance from the initiator over distinct neighbors other than v
// itself. A node at distance d gets its first requests in round d, all
// from its neighbors at distance d-1; it adopts one of them as parent
// (the smallest id: inboxes are sorted by sender) and sends a request
// to each of its reqs(v) distinct neighbors other than itself and its
// parent (the initiator has no parent). Every request is answered by
// exactly one echo, so
//
//	Messages = 2·Σ reqs(v).
//
// v sends its echo in round F(v) = dist(v) when reqs(v) = 0 and
// otherwise F(v) = max(dist(v)+2, F(c)+1 over v's children c): a
// request to a non-child is answered with an empty echo the next round,
// and a child's echo arrives the round after it is sent. Unrolled along
// the tree path from each node to the initiator, one level per round,
// the recurrence gives
//
//	Rounds = F(initiator)+1 = 1 + max over reached v of (2·dist(v) + 2·[reqs(v) > 0]),
//
// which depends on distances and degrees only, not on which parent a
// tie picks. Sum and Count run over reached nodes. Rounds ≤
// 2·ecc(initiator)+3, so the engine's 4n+8 round cap never binds and is
// not modeled. count must not mutate g; f is not safe for concurrent
// floods.
//
//dexvet:noalloc
func (f *Flood) AggregateAt(g *graph.Graph, initiator graph.NodeID, slot int32, count func(graph.NodeID, int32) bool) AggregateResult {
	f.reserve(g.Slots()) //dexvet:allow noalloc cold growth to the slot table; warm scratch never reallocates
	lvl, q := f.lvl, f.queue
	var res AggregateResult
	lvl[slot] = 1
	q[0] = slot
	tail := 1
	if count(initiator, slot) {
		res.Sum++
	}
	fin := int32(0) // F(initiator)
	for head := 0; head < tail; head++ {
		s := q[head]
		lv := lvl[s]
		// A self-loop's cell sees lvl == lv and is skipped.
		for _, c := range g.RunAt(s) {
			if lvl[c.S] == 0 {
				lvl[c.S] = lv + 1
				q[tail] = c.S
				tail++
				if count(c.V, c.S) {
					res.Sum++
				}
			}
		}
		reqs := g.DistinctDegreeAt(s)
		if s != slot {
			reqs-- // the parent gets no request
		}
		res.Messages += 2 * reqs
		// s's echo, sent in round dist(s) (+2 after requests), climbs a
		// level per round and reaches the initiator in round
		// 2·dist(s) (+2).
		back := 2 * (lv - 1)
		if reqs > 0 {
			back += 2
		}
		fin = max(fin, back)
	}
	res.Count = int64(tail)
	res.Rounds = int(fin) + 1
	for _, s := range q[:tail] {
		lvl[s] = 0
	}
	return res
}

// floodState is the per-node PIF state of the engine execution.
type floodState struct {
	seen    bool
	parent  graph.NodeID
	pending int
	sum     int64
	count   int64
}

// FloodAggregateEngine executes the PIF flood as a message-passing
// program on a fresh engine e, one goroutine per active node per round.
// It is the reference that the differential tests and FuzzFloodAggregate
// hold FloodAggregate and (*Flood).AggregateAt equal to; like
// RandomWalkEngine it exists for those tests and demonstrations, and no
// production path runs it.
func FloodAggregateEngine(e *Engine, initiator graph.NodeID, value func(graph.NodeID) int64) AggregateResult {
	topo := e.topo
	states := make(map[graph.NodeID]*floodState, topo.NumNodes())
	for _, id := range topo.Nodes() {
		states[id] = &floodState{}
	}
	var (
		mu  sync.Mutex
		res AggregateResult
	)
	const (
		req  = "req"
		echo = "echo"
	)
	othersOf := func(ctx *Ctx, except graph.NodeID) []graph.NodeID {
		return slices.DeleteFunc(ctx.Neighbors(), func(v graph.NodeID) bool {
			return v == ctx.ID || v == except
		})
	}
	finish := func(ctx *Ctx, st *floodState) {
		if ctx.ID == initiator {
			mu.Lock()
			res.Sum = st.sum
			res.Count = st.count
			mu.Unlock()
			return
		}
		ctx.Send(st.parent, echo, st.sum, st.count, 0)
	}
	prog := func(ctx *Ctx, inbox []Message) {
		st := states[ctx.ID]
		if ctx.Round == 0 && len(inbox) == 0 && ctx.ID == initiator {
			st.seen = true
			st.parent = ctx.ID
			st.sum = value(ctx.ID)
			st.count = 1
			nbrs := othersOf(ctx, ctx.ID)
			st.pending = len(nbrs)
			for _, v := range nbrs {
				ctx.Send(v, req, 0, 0, 0)
			}
			if st.pending == 0 {
				finish(ctx, st)
			}
			return
		}
		for _, m := range inbox {
			switch m.Kind {
			case req:
				if st.seen {
					// Duplicate request: answer with an empty echo so the
					// sender's pending count settles.
					ctx.Send(m.From, echo, 0, 0, 0)
					continue
				}
				st.seen = true
				st.parent = m.From
				st.sum = value(ctx.ID)
				st.count = 1
				nbrs := othersOf(ctx, m.From)
				st.pending = len(nbrs)
				for _, v := range nbrs {
					ctx.Send(v, req, 0, 0, 0)
				}
				if st.pending == 0 {
					finish(ctx, st)
				}
			case echo:
				st.sum += m.A
				st.count += m.B
				st.pending--
				if st.pending == 0 && st.seen {
					finish(ctx, st)
				}
			}
		}
	}
	e.SetUniformProgram(prog)
	rounds := e.Run([]graph.NodeID{initiator}, 4*topo.NumNodes()+8)
	res.Rounds = rounds
	res.Messages = e.Messages
	return res
}

// BroadcastCost returns the rounds and messages of a plain flood from
// initiator: every node forwards the notice to all neighbors on first
// receipt (the Section 3 strawman uses this). Computed analytically from
// BFS; rounds = eccentricity, messages = sum over nodes of forwarded
// copies.
func BroadcastCost(topo *graph.Graph, initiator graph.NodeID) (rounds, messages int) {
	dist := topo.BFSDistances(initiator)
	for id, d := range dist {
		if d > rounds {
			rounds = d
		}
		//dexvet:allow determinism DistinctDegree is a pure read; the loop folds a max and integer sums, which commute
		fan := topo.DistinctDegree(id)
		if id == initiator {
			messages += fan
		} else if fan > 0 {
			messages += fan - 1
		}
	}
	return rounds, messages
}
