package graph

import (
	"fmt"
	"sort"
)

// Ref is the reference multigraph: the map-of-maps implementation that
// backed Graph before the flat adjacency arena. It is kept verbatim as the
// differential oracle — trivially correct, allocation-heavy — that the
// swap-safety tests (FuzzGraphOps, TestArenaMatchesRef) and the
// memory-footprint gate compare the arena against. Semantics are
// identical to Graph's: undirected multigraph, self-loops count once in
// the degree, all iteration sorted by NodeID.
type Ref struct {
	adj   map[NodeID]map[NodeID]int
	edges int
}

// NewRef returns an empty reference graph.
func NewRef() *Ref {
	return &Ref{adj: make(map[NodeID]map[NodeID]int)}
}

// NumNodes returns the number of nodes.
func (g *Ref) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges counting multiplicity; a self-loop
// counts as one edge.
func (g *Ref) NumEdges() int { return g.edges }

// HasNode reports whether u exists.
func (g *Ref) HasNode(u NodeID) bool {
	_, ok := g.adj[u]
	return ok
}

// AddNode inserts u as an isolated node if not present.
func (g *Ref) AddNode(u NodeID) {
	if _, ok := g.adj[u]; !ok {
		g.adj[u] = make(map[NodeID]int)
	}
}

// RemoveNode deletes u and all incident edges. It is a no-op if u is absent.
func (g *Ref) RemoveNode(u NodeID) {
	nbrs, ok := g.adj[u]
	if !ok {
		return
	}
	for v, k := range nbrs {
		g.edges -= k
		if v != u {
			delete(g.adj[v], u)
		}
	}
	delete(g.adj, u)
}

// AddEdge adds one undirected edge {u,v}, creating the endpoints if needed.
func (g *Ref) AddEdge(u, v NodeID) { g.AddEdgeMult(u, v, 1) }

// AddEdgeMult adds k parallel {u,v} edges; k <= 0 is a no-op.
func (g *Ref) AddEdgeMult(u, v NodeID, k int) {
	if k <= 0 {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] += k
	if u != v {
		g.adj[v][u] += k
	}
	g.edges += k
}

// RemoveEdge removes one multiplicity of edge {u,v}, reporting whether an
// edge was removed.
func (g *Ref) RemoveEdge(u, v NodeID) bool { return g.RemoveEdgeMult(u, v, 1) == 1 }

// RemoveEdgeMult removes up to k multiplicities of {u,v}, returning the
// number removed.
func (g *Ref) RemoveEdgeMult(u, v NodeID, k int) int {
	if k <= 0 {
		return 0
	}
	nbrs, ok := g.adj[u]
	if !ok {
		return 0
	}
	have, ok := nbrs[v]
	if !ok || have == 0 {
		return 0
	}
	if have < k {
		k = have
	}
	if have == k {
		delete(nbrs, v)
	} else {
		nbrs[v] = have - k
	}
	if u != v {
		if k2 := g.adj[v][u]; k2 == k {
			delete(g.adj[v], u)
		} else {
			g.adj[v][u] = k2 - k
		}
	}
	g.edges -= k
	return k
}

// Multiplicity returns the number of parallel {u,v} edges.
func (g *Ref) Multiplicity(u, v NodeID) int {
	if nbrs, ok := g.adj[u]; ok {
		return nbrs[v]
	}
	return 0
}

// HasEdge reports whether at least one {u,v} edge exists.
func (g *Ref) HasEdge(u, v NodeID) bool { return g.Multiplicity(u, v) > 0 }

// Degree returns the multigraph degree of u (self-loops count once).
func (g *Ref) Degree(u NodeID) int {
	d := 0
	for _, k := range g.adj[u] {
		d += k
	}
	return d
}

// DistinctDegree returns the number of distinct non-self neighbors of u.
func (g *Ref) DistinctDegree(u NodeID) int {
	d := 0
	for v := range g.adj[u] {
		if v != u {
			d++
		}
	}
	return d
}

// Nodes returns all node IDs in ascending order.
func (g *Ref) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.adj))
	for u := range g.adj {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Neighbors returns the distinct neighbors of u in ascending order,
// including u itself when u has a self-loop.
func (g *Ref) Neighbors(u NodeID) []NodeID {
	nbrs := g.adj[u]
	out := make([]NodeID, 0, len(nbrs))
	for v := range nbrs {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WeightedNeighbors returns the distinct neighbors of u in ascending order
// with the multiplicity of each connecting edge.
func (g *Ref) WeightedNeighbors(u NodeID) (nbrs []NodeID, mult []int) {
	ns := g.Neighbors(u)
	ms := make([]int, len(ns))
	for i, v := range ns {
		ms[i] = g.adj[u][v]
	}
	return ns, ms
}

// RandomNeighborStep mirrors Graph.RandomNeighborStep over the sorted
// neighbor view, so walk-step differential tests can compare choices
// word-for-word.
func (g *Ref) RandomNeighborStep(u, exclude NodeID, r uint64) (NodeID, bool) {
	nbrs, mult := g.WeightedNeighbors(u)
	total := 0
	for i, v := range nbrs {
		if v == exclude {
			continue
		}
		total += mult[i]
	}
	if total == 0 {
		return 0, false
	}
	pick := int(r % uint64(total))
	for i, v := range nbrs {
		if v == exclude {
			continue
		}
		pick -= mult[i]
		if pick < 0 {
			return v, true
		}
	}
	return 0, false
}

// Edges returns all distinct edges in deterministic order.
func (g *Ref) Edges() []Edge {
	var out []Edge
	for _, u := range g.Nodes() {
		for v, k := range g.adj[u] {
			if v < u {
				continue
			}
			out = append(out, Edge{U: u, V: v, Mult: k})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Validate checks adjacency symmetry and edge accounting.
func (g *Ref) Validate() error {
	total := 0
	for u, nbrs := range g.adj {
		for v, k := range nbrs {
			if k <= 0 {
				return fmt.Errorf("ref: nonpositive multiplicity %d on {%d,%d}", k, u, v)
			}
			if v == u {
				total += 2 * k
				continue
			}
			back, ok := g.adj[v]
			if !ok {
				return fmt.Errorf("ref: dangling neighbor %d of %d", v, u)
			}
			if back[u] != k {
				return fmt.Errorf("ref: asymmetric multiplicity {%d,%d}: %d vs %d", u, v, k, back[u])
			}
			total += k
		}
	}
	if total != 2*g.edges {
		return fmt.Errorf("ref: edge count mismatch: handshake sum %d, 2*edges %d", total, 2*g.edges)
	}
	return nil
}
