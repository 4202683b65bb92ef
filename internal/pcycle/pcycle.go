// Package pcycle implements the paper's virtual expander family: the
// p-cycle Z(p) of Definition 1, together with the inflation and deflation
// vertex maps used by type-2 recovery (Algorithms 4.5/4.6 and their
// staggered variants), shortest-path routing, and a store-and-forward
// permutation-routing simulator (the Scheideler Corollary 7.7.3 substrate).
//
// For a prime p, Z(p) has vertex set Z_p = {0, ..., p-1} and edges
// (x, x+1 mod p), (x, x-1 mod p), and the chord (x, x^{-1} mod p) for
// x > 0; vertex 0 carries a self-loop. Because modular inversion is an
// involution the chords are well-defined undirected edges; 1 and p-1 are
// self-inverse so their chords are self-loops. Counting each of the three
// neighbor slots once, every vertex has exactly three incident edge slots,
// making Z(p) a 3-regular multigraph with a constant spectral gap
// (Lubotzky; cf. Definition 1 and [14] in the paper).
package pcycle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/primes"
)

// Vertex is a vertex of a p-cycle, an element of Z_p.
type Vertex = int64

// Cycle is the p-cycle expander Z(p) for a fixed prime p.
type Cycle struct {
	p    int64
	inv  []int32 // cached inverses; inv[0] = 0 by the self-loop convention
	ecc0 int     // eccentricity of vertex 0, lazily computed (-1 = unset)
}

// maxP is the largest modulus New accepts. Every vertex then fits in an
// int32, which the inverse table relies on, and so does the DEX
// engine's store, whose vertex cells are 4 bytes.
const maxP = math.MaxInt32

// New returns Z(p). p must be a prime >= 5 (below that the cycle and
// chord edges collapse in ways Definition 1 does not intend) and at
// most maxP.
func New(p int64) (*Cycle, error) {
	if p > maxP {
		return nil, fmt.Errorf("pcycle: p = %d exceeds the largest modulus %d", p, maxP)
	}
	if p < 5 || !primes.IsPrime(p) {
		return nil, fmt.Errorf("pcycle: p = %d is not a prime >= 5", p)
	}
	c := &Cycle{p: p, ecc0: -1}
	c.inv = make([]int32, p)
	// Batch-compute inverses in O(p): inv[x] via inv[x] = -(p/x)*inv[p%x].
	c.inv[0] = 0
	c.inv[1] = 1
	for x := int64(2); x < p; x++ {
		c.inv[x] = int32((p - (p/x)*int64(c.inv[p%x])%p) % p)
	}
	return c, nil
}

// P returns the prime modulus.
func (c *Cycle) P() int64 { return c.p }

// Contains reports whether x is a vertex of Z(p).
func (c *Cycle) Contains(x Vertex) bool { return x >= 0 && x < c.p }

// Inv returns the chord partner of x: x^{-1} mod p for x > 0, and 0 for
// x = 0 (the self-loop of Definition 1).
func (c *Cycle) Inv(x Vertex) Vertex { return Vertex(c.inv[x]) }

// Succ returns x+1 mod p.
func (c *Cycle) Succ(x Vertex) Vertex {
	if x == c.p-1 {
		return 0
	}
	return x + 1
}

// Pred returns x-1 mod p.
func (c *Cycle) Pred(x Vertex) Vertex {
	if x == 0 {
		return c.p - 1
	}
	return x - 1
}

// NeighborSlots returns the three incident edge slots of x in order
// (predecessor, successor, chord). Slots may repeat x itself (self-loops
// at 0, 1, p-1) but for p >= 5 the three slots are the complete incident
// edge list of the 3-regular multigraph.
func (c *Cycle) NeighborSlots(x Vertex) [3]Vertex {
	return [3]Vertex{c.Pred(x), c.Succ(x), Vertex(c.inv[x])}
}

// Graph materializes Z(p) as a multigraph. Each undirected edge appears
// once; self-loop chords appear as loops.
func (c *Cycle) Graph() *graph.Graph {
	g := graph.New()
	for x := int64(0); x < c.p; x++ {
		g.AddEdge(graph.NodeID(x), graph.NodeID(c.Succ(x)))
		if y := Vertex(c.inv[x]); y >= x { // add each chord once (y == x => loop)
			g.AddEdge(graph.NodeID(x), graph.NodeID(y))
		}
	}
	return g
}

// DistancesFrom returns BFS hop distances from x to every vertex.
func (c *Cycle) DistancesFrom(x Vertex) []int32 {
	dist := make([]int32, c.p)
	for i := range dist {
		dist[i] = -1
	}
	dist[x] = 0
	queue := []Vertex{x}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range c.NeighborSlots(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestPath returns a shortest path from x to y (inclusive) using BFS
// with deterministic tie-breaking. Every node that knows the virtual graph
// can compute this locally (cf. Section 4.4: "this shortest path can be
// computed locally").
func (c *Cycle) ShortestPath(x, y Vertex) []Vertex {
	if x == y {
		return []Vertex{x}
	}
	dist := c.DistancesFrom(y)
	path := []Vertex{x}
	cur := x
	for cur != y {
		next := cur
		best := dist[cur]
		for _, v := range c.NeighborSlots(cur) {
			if dist[v] >= 0 && (dist[v] < best || (dist[v] == best && v < next)) && dist[v] < dist[cur] {
				best = dist[v]
				next = v
			}
		}
		cur = next
		path = append(path, cur)
	}
	return path
}

// Dist returns the hop distance between x and y.
func (c *Cycle) Dist(x, y Vertex) int {
	return int(c.DistancesFrom(x)[y])
}

// EccentricityOfZero returns the BFS eccentricity of vertex 0, cached.
// Because diam(Z) <= 2*ecc(0), the coordinator protocol uses 2*ecc(0) as
// its deterministic round budget for flooding (Algorithm 4.4).
func (c *Cycle) EccentricityOfZero() int {
	if c.ecc0 >= 0 {
		return c.ecc0
	}
	dist := c.DistancesFrom(0)
	ecc := int32(0)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	c.ecc0 = int(ecc)
	return c.ecc0
}

// DiameterUpperBound returns 2*ecc(0), an upper bound on the hop diameter
// used for round accounting of shortest-path control messages.
func (c *Cycle) DiameterUpperBound() int { return 2 * c.EccentricityOfZero() }

// Diameter computes the exact diameter by all-sources BFS; O(p^2), for
// tests and small-p experiments only.
func (c *Cycle) Diameter() int {
	diam := int32(0)
	for x := int64(0); x < c.p; x++ {
		for _, d := range c.DistancesFrom(x) {
			if d > diam {
				diam = d
			}
		}
	}
	return int(diam)
}

// ---------------------------------------------------------------------------
// Inflation map (Algorithm 4.5 Phase 1 / eqs. 6-7)
// ---------------------------------------------------------------------------

// Inflation is the vertex correspondence between Z(pOld) and the larger
// Z(pNew), pNew the smallest prime in (4*pOld, 8*pOld). Every old vertex x
// is replaced by the cloud {y_0, ..., y_{c(x)}} with
// y_j = ceil(alpha*x) + j, alpha = pNew/pOld, and
// c(x) = ceil(alpha*(x+1)) - ceil(alpha*x) - 1 (exact integer arithmetic).
// The clouds partition Z_{pNew} (Lemma 4(b)).
type Inflation struct {
	POld, PNew int64
}

// NewInflation picks pNew for pOld per the paper's interval.
func NewInflation(pOld int64) (Inflation, error) {
	if !primes.IsPrime(pOld) {
		return Inflation{}, fmt.Errorf("pcycle: inflation from non-prime %d", pOld)
	}
	pNew, ok := primes.FirstPrimeIn(4*pOld, 8*pOld)
	if !ok {
		return Inflation{}, fmt.Errorf("pcycle: no prime in (4*%d, 8*%d)", pOld, pOld)
	}
	return Inflation{POld: pOld, PNew: pNew}, nil
}

// ceilAlphaTimes returns ceil(pNew * x / pOld) exactly.
func (m Inflation) ceilAlphaTimes(x int64) int64 {
	return (m.PNew*x + m.POld - 1) / m.POld
}

// CloudStart returns the first new vertex of x's cloud, ceil(alpha*x).
func (m Inflation) CloudStart(x Vertex) Vertex { return m.ceilAlphaTimes(x) % m.PNew }

// CloudSize returns c(x)+1, the number of new vertices replacing x.
func (m Inflation) CloudSize(x Vertex) int {
	return int(m.ceilAlphaTimes(x+1) - m.ceilAlphaTimes(x))
}

// Cloud returns the new vertices replacing old vertex x, in increasing
// order.
func (m Inflation) Cloud(x Vertex) []Vertex {
	start := m.ceilAlphaTimes(x)
	end := m.ceilAlphaTimes(x + 1)
	out := make([]Vertex, 0, end-start)
	for y := start; y < end; y++ {
		out = append(out, y%m.PNew)
	}
	return out
}

// OldOwner returns the old vertex whose cloud contains new vertex y:
// the unique x with ceil(alpha*x) <= y < ceil(alpha*(x+1)), which is
// floor(y*pOld/pNew).
func (m Inflation) OldOwner(y Vertex) Vertex { return y * m.POld / m.PNew }

// MaxCloudSize returns the largest cloud size. Cloud sizes take only the
// values floor(alpha) and floor(alpha)+1 and, because pNew is never a
// multiple of pOld, both occur; the maximum is therefore exactly
// floor(pNew/pOld)+1, bounded by the paper's zeta <= 8 since alpha < 8.
func (m Inflation) MaxCloudSize() int {
	return int(m.PNew/m.POld) + 1
}

// ---------------------------------------------------------------------------
// Deflation map (Algorithm 4.6 Phase 1)
// ---------------------------------------------------------------------------

// Deflation is the correspondence between Z(pOld) and the smaller Z(pNew),
// pNew a prime in (pOld/8, pOld/4). Old vertex x maps to
// y = floor(x/alpha) = floor(x*pNew/pOld), alpha = pOld/pNew > 4. The old
// vertex that "dominates" y is the smallest x in y's deflation cloud.
type Deflation struct {
	POld, PNew int64
}

// NewDeflation picks pNew for pOld per the paper's interval.
func NewDeflation(pOld int64) (Deflation, error) { return NewDeflationFloor(pOld, 0) }

// NewDeflationFloor picks pNew for pOld per the paper's interval
// (pOld/8, pOld/4), additionally requiring pNew >= floor. The paper's
// analysis never needs the floor — its zeta/theta regime keeps n well
// below pOld/8 whenever a deflation triggers — but implementations run
// outside that regime (small zeta ablations, deep-crash churn) must not
// shrink the cycle below the node count: a deflation with pNew < n has
// no surjective mapping, so its contender resolution is structurally
// infeasible. The smallest admissible prime is chosen, so when the
// floor does not bind the result equals NewDeflation's exactly.
func NewDeflationFloor(pOld, floor int64) (Deflation, error) {
	if !primes.IsPrime(pOld) {
		return Deflation{}, fmt.Errorf("pcycle: deflation from non-prime %d", pOld)
	}
	lo := pOld / 8
	if floor > 0 && floor-1 > lo {
		lo = floor - 1 // FirstPrimeIn's interval is open: first prime > lo
	}
	pNew, ok := primes.FirstPrimeIn(lo, pOld/4)
	if !ok {
		return Deflation{}, fmt.Errorf("pcycle: no prime in (%d, %d/4)", lo, pOld)
	}
	return Deflation{POld: pOld, PNew: pNew}, nil
}

// NewVertexOf returns y = floor(x * pNew / pOld).
func (m Deflation) NewVertexOf(x Vertex) Vertex { return x * m.PNew / m.POld }

// DominatorOf returns the smallest old vertex in y's deflation cloud,
// ceil(y * pOld / pNew).
func (m Deflation) DominatorOf(y Vertex) Vertex {
	return (y*m.POld + m.PNew - 1) / m.PNew
}

// Dominates reports whether old vertex x is the dominator of its new
// vertex (i.e. the smallest member of its deflation cloud).
func (m Deflation) Dominates(x Vertex) bool {
	return m.DominatorOf(m.NewVertexOf(x)) == x
}

// DeflationCloud returns the old vertices contracted into new vertex y, in
// increasing order.
func (m Deflation) DeflationCloud(y Vertex) []Vertex {
	lo := m.DominatorOf(y)
	hi := (y + 1) * m.POld
	hi = (hi + m.PNew - 1) / m.PNew // dominator of y+1
	if hi > m.POld {
		hi = m.POld
	}
	out := make([]Vertex, 0, hi-lo)
	for x := lo; x < hi; x++ {
		out = append(out, x)
	}
	return out
}

// MaxCloudSize returns the largest deflation-cloud size, exactly
// floor(pOld/pNew)+1 (<= 8 since alpha = pOld/pNew < 8).
func (m Deflation) MaxCloudSize() int {
	return int(m.POld/m.PNew) + 1
}

// ---------------------------------------------------------------------------
// Permutation routing (Scheideler Cor. 7.7.3 substrate; experiment FIG-R)
// ---------------------------------------------------------------------------

// RoutePermutation simulates store-and-forward packet routing on Z(p):
// every vertex x holds one packet destined to perm(x); each round, each
// directed edge slot carries at most one packet; contended edges serve the
// packet with the farthest remaining distance first (ties to smaller
// source). It returns the number of rounds until all packets are
// delivered and the maximum queue length observed.
//
// Packets follow precomputed shortest paths, so memory/CPU is O(p * diam).
// Intended for p up to a few thousand (the FIG-R sweep).
func (c *Cycle) RoutePermutation(perm func(Vertex) Vertex) (rounds, maxQueue int) {
	type packet struct {
		src  Vertex
		path []Vertex // remaining path, path[0] = current vertex
	}
	// Precompute per-destination BFS trees grouped to reuse distance
	// arrays: one BFS per packet destination.
	packets := make([]*packet, 0, c.p)
	for x := int64(0); x < c.p; x++ {
		d := perm(x)
		if d == x {
			continue
		}
		pk := &packet{src: x, path: c.ShortestPath(x, d)}
		packets = append(packets, pk)
	}
	queues := make(map[Vertex][]*packet, c.p)
	for _, pk := range packets {
		queues[pk.path[0]] = append(queues[pk.path[0]], pk)
	}
	remaining := len(packets)
	for rounds = 0; remaining > 0; rounds++ {
		if rounds > int(c.p)*4 {
			panic("pcycle: permutation routing failed to terminate")
		}
		type dirEdge struct{ from, to Vertex }
		claimed := make(map[dirEdge]*packet)
		// Each vertex offers each queued packet; each directed edge picks
		// its highest-priority claimant.
		for _, q := range queues {
			for _, pk := range q {
				if len(pk.path) < 2 {
					continue
				}
				e := dirEdge{pk.path[0], pk.path[1]}
				cur := claimed[e]
				if cur == nil || len(pk.path) > len(cur.path) ||
					(len(pk.path) == len(cur.path) && pk.src < cur.src) {
					claimed[e] = pk
				}
			}
		}
		moved := make(map[*packet]bool, len(claimed))
		for _, pk := range claimed {
			moved[pk] = true
		}
		newQueues := make(map[Vertex][]*packet, len(queues))
		for _, q := range queues {
			for _, pk := range q {
				if moved[pk] {
					pk.path = pk.path[1:]
					if len(pk.path) == 1 {
						remaining--
						continue
					}
				}
				newQueues[pk.path[0]] = append(newQueues[pk.path[0]], pk)
			}
		}
		queues = newQueues
		for _, q := range queues {
			if len(q) > maxQueue {
				maxQueue = len(q)
			}
		}
	}
	return rounds, maxQueue
}

// InversePermutation returns the chord permutation x -> x^{-1} (0 -> 0),
// the permutation type-2 recovery routes to discover inverse edges.
func (c *Cycle) InversePermutation() func(Vertex) Vertex {
	return func(x Vertex) Vertex { return Vertex(c.inv[x]) }
}

// VertexSet returns all vertices in increasing order (for tests).
func (c *Cycle) VertexSet() []Vertex {
	out := make([]Vertex, c.p)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// String implements fmt.Stringer.
func (c *Cycle) String() string { return fmt.Sprintf("Z(%d)", c.p) }

// SortVertices sorts a vertex slice ascending (helper shared by core/dht).
func SortVertices(vs []Vertex) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}
