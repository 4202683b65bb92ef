package pcycle

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/primes"
	"repro/internal/spectral"
)

func mustCycle(t testing.TB, p int64) *Cycle {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadModulus(t *testing.T) {
	for _, p := range []int64{0, 1, 2, 3, 4, 9, 15, 100} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) accepted", p)
		}
	}
}

// TestNewRejectsModulusAboveInt32 checks the bound that lets the
// inverse table, and the engine's vertex cells, hold a vertex in an
// int32: the smallest prime above it is refused before New sizes a
// table for it.
func TestNewRejectsModulusAboveInt32(t *testing.T) {
	const p = math.MaxInt32 + 12 // 2147483659, the smallest prime above 2^31-1
	if !primes.IsPrime(p) {
		t.Fatalf("%d is not prime", int64(p))
	}
	if _, err := New(p); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("New(%d) = %v, want the modulus refused as too large", int64(p), err)
	}
}

func TestInverseTableMatchesModInverse(t *testing.T) {
	for _, p := range []int64{5, 7, 23, 101, 4099} {
		c := mustCycle(t, p)
		if c.Inv(0) != 0 {
			t.Fatalf("Inv(0) = %d", c.Inv(0))
		}
		for x := int64(1); x < p; x++ {
			if got, want := c.Inv(x), primes.ModInverse(x, p); got != want {
				t.Fatalf("p=%d Inv(%d) = %d, want %d", p, x, got, want)
			}
		}
	}
}

func TestThreeRegularity(t *testing.T) {
	// Every vertex has exactly 3 incident edge slots; materialized as a
	// multigraph, total degree = 3p and edges = ceil(3p/2) accounting for
	// loops (each loop contributes 1 to its endpoint's degree).
	for _, p := range []int64{5, 23, 101} {
		c := mustCycle(t, p)
		g := c.Graph()
		if g.NumNodes() != int(p) {
			t.Fatalf("p=%d nodes=%d", p, g.NumNodes())
		}
		// Every vertex has exactly 3 incident slots (pred, succ, chord); a
		// self-loop occupies one slot and counts once in Degree, so every
		// vertex has Degree exactly 3 and the sum is 3p.
		total := 0
		for _, u := range g.Nodes() {
			d := g.Degree(u)
			if d != 3 {
				t.Fatalf("p=%d vertex %d degree %d, want 3", p, u, d)
			}
			total += d
		}
		if total != int(3*p) {
			t.Fatalf("p=%d total degree=%d want %d", p, total, 3*p)
		}
		if g.Validate() != nil {
			t.Fatalf("p=%d graph invalid", p)
		}
		if !g.Connected() {
			t.Fatalf("p=%d disconnected", p)
		}
	}
}

func TestFigure1Cycle23(t *testing.T) {
	// The paper's Figure 1 uses Z(23). Spot-check its structure: vertex 2
	// neighbors 1, 3 and 12 (2*12=24=1 mod 23).
	c := mustCycle(t, 23)
	slots := c.NeighborSlots(2)
	if slots[0] != 1 || slots[1] != 3 || slots[2] != 12 {
		t.Fatalf("neighbors of 2 in Z(23): %v", slots)
	}
	if c.Inv(22) != 22 || c.Inv(1) != 1 {
		t.Fatal("1 and 22 must be self-inverse in Z(23)")
	}
	g := c.Graph()
	gap := spectral.GapDense(g)
	if gap < 0.05 {
		t.Fatalf("Z(23) gap = %v, expected a healthy constant", gap)
	}
}

func TestPCycleFamilyConstantGap(t *testing.T) {
	// Definition 4: the p-cycle family has a uniform constant spectral
	// gap. The constant is small (the Lubotzky-style bound is weak) but
	// must not trend to zero: check a floor and that consecutive sizes do
	// not halve the gap once past the small-p regime.
	var gaps []float64
	for _, p := range []int64{23, 101, 199, 383} {
		g := mustCycle(t, p).Graph()
		gaps = append(gaps, spectral.GapDense(g))
	}
	for i, gap := range gaps {
		if gap < 0.025 {
			t.Fatalf("gap[%d] = %v too small: %v", i, gap, gaps)
		}
	}
	if gaps[3] < gaps[1]/2 {
		t.Fatalf("gap collapsing with p: %v", gaps)
	}
}

func TestDiameterLogarithmic(t *testing.T) {
	// Expander diameter should scale like O(log p); check the constant is
	// modest and that the 2*ecc(0) upper bound dominates the true diameter.
	for _, p := range []int64{23, 101, 499, 1009} {
		c := mustCycle(t, p)
		d := c.Diameter()
		ub := c.DiameterUpperBound()
		if d > ub {
			t.Fatalf("p=%d diameter %d exceeds upper bound %d", p, d, ub)
		}
		if float64(d) > 6*math.Log2(float64(p)) {
			t.Fatalf("p=%d diameter %d not logarithmic", p, d)
		}
	}
}

func TestShortestPathProperties(t *testing.T) {
	c := mustCycle(t, 101)
	for _, pair := range [][2]Vertex{{0, 50}, {7, 93}, {1, 100}, {13, 13}} {
		path := c.ShortestPath(pair[0], pair[1])
		if path[0] != pair[0] || path[len(path)-1] != pair[1] {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		if len(path)-1 != c.Dist(pair[0], pair[1]) {
			t.Fatalf("path length %d != dist %d", len(path)-1, c.Dist(pair[0], pair[1]))
		}
		for i := 0; i+1 < len(path); i++ {
			s := c.NeighborSlots(path[i])
			if path[i+1] != s[0] && path[i+1] != s[1] && path[i+1] != s[2] {
				t.Fatalf("non-edge step %d->%d", path[i], path[i+1])
			}
		}
	}
}

func TestInflationCloudsPartition(t *testing.T) {
	// Lemma 4(b): the clouds form a bijection with Z_{pNew}.
	for _, pOld := range []int64{5, 23, 101, 499} {
		m, err := NewInflation(pOld)
		if err != nil {
			t.Fatal(err)
		}
		if m.PNew <= 4*pOld || m.PNew >= 8*pOld {
			t.Fatalf("pNew=%d outside (4*%d, 8*%d)", m.PNew, pOld, pOld)
		}
		seen := make(map[Vertex]Vertex)
		for x := int64(0); x < pOld; x++ {
			cloud := m.Cloud(x)
			if len(cloud) != m.CloudSize(x) {
				t.Fatalf("cloud size mismatch at %d", x)
			}
			if len(cloud) > m.MaxCloudSize() {
				t.Fatalf("cloud at %d larger than MaxCloudSize", x)
			}
			for _, y := range cloud {
				if prev, dup := seen[y]; dup {
					t.Fatalf("new vertex %d in clouds of both %d and %d", y, prev, x)
				}
				seen[y] = x
				if m.OldOwner(y) != x {
					t.Fatalf("OldOwner(%d) = %d, want %d", y, m.OldOwner(y), x)
				}
			}
		}
		if int64(len(seen)) != m.PNew {
			t.Fatalf("clouds cover %d of %d new vertices", len(seen), m.PNew)
		}
		if m.MaxCloudSize() > 8 {
			t.Fatalf("max cloud size %d > zeta=8", m.MaxCloudSize())
		}
	}
}

func TestInflationMaxCloudSizeExact(t *testing.T) {
	for _, pOld := range []int64{5, 23, 101} {
		m, err := NewInflation(pOld)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for x := int64(0); x < pOld; x++ {
			if s := m.CloudSize(x); s > max {
				max = s
			}
		}
		if max != m.MaxCloudSize() {
			t.Fatalf("pOld=%d scan max %d != analytic %d", pOld, max, m.MaxCloudSize())
		}
	}
}

func TestDeflationCloudsPartition(t *testing.T) {
	// Lemma 6(b): y -> deflation cloud partitions Z_{pOld} and every new
	// vertex has exactly one dominator.
	for _, pOld := range []int64{101, 499, 1009} {
		m, err := NewDeflation(pOld)
		if err != nil {
			t.Fatal(err)
		}
		if m.PNew <= pOld/8 || m.PNew >= pOld/4 {
			t.Fatalf("pNew=%d outside (%d/8, %d/4)", m.PNew, pOld, pOld)
		}
		covered := int64(0)
		for y := int64(0); y < m.PNew; y++ {
			cloud := m.DeflationCloud(y)
			if len(cloud) == 0 {
				t.Fatalf("empty deflation cloud for %d", y)
			}
			if len(cloud) > m.MaxCloudSize() {
				t.Fatalf("cloud of %d exceeds MaxCloudSize", y)
			}
			dom := m.DominatorOf(y)
			if cloud[0] != dom {
				t.Fatalf("dominator mismatch: %d vs %d", cloud[0], dom)
			}
			if !m.Dominates(dom) {
				t.Fatalf("Dominates(%d) false", dom)
			}
			for i, x := range cloud {
				if m.NewVertexOf(x) != y {
					t.Fatalf("NewVertexOf(%d) = %d, want %d", x, m.NewVertexOf(x), y)
				}
				if i > 0 && m.Dominates(x) {
					t.Fatalf("non-smallest %d claims domination", x)
				}
			}
			covered += int64(len(cloud))
		}
		if covered != pOld {
			t.Fatalf("deflation clouds cover %d of %d", covered, pOld)
		}
	}
}

func TestInflationDeflationQuick(t *testing.T) {
	// Property: for random old vertices, OldOwner inverts Cloud and
	// NewVertexOf inverts DeflationCloud membership.
	inf, err := NewInflation(1009)
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewDeflation(1009)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		x := int64(raw) % 1009
		for _, y := range inf.Cloud(x) {
			if inf.OldOwner(y) != x {
				return false
			}
		}
		y := def.NewVertexOf(x)
		found := false
		for _, xx := range def.DeflationCloud(y) {
			if xx == x {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutePermutationIdentityIsFree(t *testing.T) {
	c := mustCycle(t, 101)
	rounds, _ := c.RoutePermutation(func(x Vertex) Vertex { return x })
	if rounds != 0 {
		t.Fatalf("identity permutation took %d rounds", rounds)
	}
}

func TestRoutePermutationShift(t *testing.T) {
	c := mustCycle(t, 101)
	rounds, _ := c.RoutePermutation(func(x Vertex) Vertex { return (x + 1) % 101 })
	if rounds < 1 || rounds > 5 {
		t.Fatalf("shift permutation rounds = %d", rounds)
	}
}

func TestRoutePermutationInverseChord(t *testing.T) {
	// The routing instance type-2 recovery actually solves: x -> x^{-1}.
	for _, p := range []int64{101, 499} {
		c := mustCycle(t, p)
		rounds, maxQ := c.RoutePermutation(c.InversePermutation())
		bound := 4 * int(math.Pow(math.Log2(float64(p)), 2))
		if rounds > bound {
			t.Fatalf("p=%d inverse routing took %d rounds (> %d); maxQ=%d", p, rounds, bound, maxQ)
		}
	}
}

func TestSortVertices(t *testing.T) {
	vs := []Vertex{5, 1, 3}
	SortVertices(vs)
	if vs[0] != 1 || vs[1] != 3 || vs[2] != 5 {
		t.Fatalf("sorted = %v", vs)
	}
}

func TestStringer(t *testing.T) {
	if s := mustCycle(t, 23).String(); s != "Z(23)" {
		t.Fatalf("String = %q", s)
	}
}

func BenchmarkNeighborSlots(b *testing.B) {
	c := mustCycle(b, 104729)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NeighborSlots(Vertex(i) % 104729)
	}
}

func BenchmarkRandomPermRouting1009(b *testing.B) {
	c := mustCycle(b, 1009)
	perm := make([]Vertex, 1009)
	for i := range perm {
		perm[i] = Vertex((i*733 + 17) % 1009) // fixed full-cycle permutation
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RoutePermutation(func(x Vertex) Vertex { return perm[x] })
	}
}
