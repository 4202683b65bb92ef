// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in README.md).
// Each function runs a workload, prints the rows/series the paper
// reports, and returns the headline numbers so bench_test.go and the
// test suite can assert the expected shapes.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/dex"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/flipgraph"
	"repro/internal/harness"
	"repro/internal/lawsiu"
	"repro/internal/naive"
	"repro/internal/pcycle"
	"repro/internal/skipgraph"
	"repro/internal/spectral"
	"repro/internal/stats"
)

func newDex(n0 int, mode dex.Mode, seed int64) *dex.Network {
	nw, err := dex.New(dex.WithInitialSize(n0), dex.WithMode(mode), dex.WithSeed(seed))
	if err != nil {
		panic(err)
	}
	return nw
}

// ---------------------------------------------------------------------------
// T1: Table 1 - comparison of distributed expander constructions
// ---------------------------------------------------------------------------

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	Name            string
	MinGapRandom    float64 // min spectral gap under random churn
	MinGapAdaptive  float64 // min spectral gap under the adaptive cut-thinner
	MaxDegree       int
	RecoveryP99     float64 // rounds
	MessagesP99     float64
	TopoChangesP99  float64
	TopoChangesMean float64
}

// Table1 measures every Table 1 comparison column empirically.
func Table1(w io.Writer, n0, steps int, seed int64) []Table1Row {
	build := func(name string) harness.Maintainer {
		switch name {
		case "dex":
			return newDex(n0, dex.Staggered, seed)
		case "law-siu":
			nw, err := lawsiu.New(n0, 3, seed)
			if err != nil {
				panic(err)
			}
			return harness.LawSiuMaintainer{Network: nw}
		case "skip-graph":
			nw, err := skipgraph.New(n0, seed)
			if err != nil {
				panic(err)
			}
			return harness.SkipMaintainer{Network: nw}
		case "flip-chain":
			nw, err := flipgraph.New(n0, 6, seed)
			if err != nil {
				panic(err)
			}
			return harness.FlipMaintainer{Network: nw}
		}
		panic("unknown maintainer " + name)
	}
	var rows []Table1Row
	for _, name := range []string{"dex", "law-siu", "skip-graph", "flip-chain"} {
		row := Table1Row{Name: name}
		// Random churn leg.
		m := build(name)
		recs, err := harness.Run(m, harness.RandomChurn{PInsert: 0.5}, harness.RunConfig{
			Steps: steps, Seed: seed, GapEvery: 10,
		})
		if err != nil {
			panic(err)
		}
		rounds, msgs, topo, maxDeg, minGap := harness.Summaries(recs)
		row.MinGapRandom = minGap
		row.MaxDegree = maxDeg
		row.RecoveryP99 = rounds.P99
		row.MessagesP99 = msgs.P99
		row.TopoChangesP99 = topo.P99
		row.TopoChangesMean = topo.Mean
		// Adaptive adversary leg (fresh network).
		m2 := build(name)
		recs2, err := harness.Run(m2, &harness.CutThinning{}, harness.RunConfig{
			Steps: steps / 2, Seed: seed + 1, GapEvery: 10,
		})
		if err != nil {
			panic(err)
		}
		_, _, _, _, row.MinGapAdaptive = harness.Summaries(recs2)
		rows = append(rows, row)
	}
	tb := &stats.Table{Header: []string{
		"algorithm", "min-gap(random)", "min-gap(adaptive)", "max-degree",
		"recovery-p99(rounds)", "messages-p99", "topo-changes-p99", "topo-mean",
	}}
	for _, r := range rows {
		tb.AddF(r.Name, fmt.Sprintf("%.4f", r.MinGapRandom), fmt.Sprintf("%.4f", r.MinGapAdaptive),
			r.MaxDegree, r.RecoveryP99, r.MessagesP99, r.TopoChangesP99, r.TopoChangesMean)
	}
	fmt.Fprintf(w, "T1: Table 1 reproduction (n0=%d, %d steps)\n%s\n", n0, steps, tb)
	return rows
}

// ---------------------------------------------------------------------------
// F1: Figure 1 - the 23-cycle and a 4-balanced mapping
// ---------------------------------------------------------------------------

// Figure1 renders Z(23), a 4-balanced mapping onto 7 nodes, and the
// measured properties of both; returns the virtual and real spectral gaps.
func Figure1(w io.Writer) (virtualGap, realGap float64) {
	z, err := pcycle.New(23)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "F1: Figure 1 reproduction - virtual graph Z(23):")
	for x := int64(0); x < 23; x++ {
		s := z.NeighborSlots(x)
		fmt.Fprintf(w, "  vertex %2d: cycle (%2d, %2d), chord %2d\n", x, s[0], s[1], s[2])
	}
	owner := make([]core.NodeID, 23)
	names := "ABCDEFG"
	for x := range owner {
		owner[x] = core.NodeID(x * 7 / 23)
	}
	nw, err := core.NewWithMapping(23, owner, core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "  4-balanced virtual mapping onto 7 real nodes:")
	for u := 0; u < 7; u++ {
		var vs []string
		for x := range owner {
			if owner[x] == core.NodeID(u) {
				vs = append(vs, fmt.Sprintf("%d", x))
			}
		}
		fmt.Fprintf(w, "  node %c simulates {%s}\n", names[u], strings.Join(vs, ","))
	}
	virtualGap = spectral.GapDense(z.Graph())
	realGap = spectral.GapDense(nw.Graph())
	fmt.Fprintf(w, "  spectral gap: virtual %.4f <= real %.4f (Lemma 1)\n\n", virtualGap, realGap)
	return virtualGap, realGap
}

// ---------------------------------------------------------------------------
// THM1: worst-case per-step costs scale as O(log n), O(1) topology changes
// ---------------------------------------------------------------------------

// ScalingPoint is one network-size sample of the Theorem 1 sweep.
type ScalingPoint struct {
	N            int
	RoundsMean   float64
	RoundsMax    float64
	MessagesMean float64
	MessagesMax  float64
	TopoMean     float64
	TopoMax      float64
	WalkLen      int
}

// Thm1Scaling sweeps network sizes and measures per-step worst-case
// costs under mixed churn with staggered type-2 recovery. It returns the
// points and the fitted power-law exponents for rounds and messages
// (near 0 for logarithmic growth, near 1 for linear).
func Thm1Scaling(w io.Writer, sizes []int, steps int, seed int64) ([]ScalingPoint, float64, float64) {
	var pts []ScalingPoint
	for _, n := range sizes {
		m := newDex(n, dex.Staggered, seed)
		recs, err := harness.Run(m, harness.RandomChurn{PInsert: 0.5}, harness.RunConfig{
			Steps: steps, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		rounds, msgs, topo, _, _ := harness.Summaries(recs)
		pts = append(pts, ScalingPoint{
			N: n, RoundsMean: rounds.Mean, RoundsMax: rounds.Max,
			MessagesMean: msgs.Mean, MessagesMax: msgs.Max,
			TopoMean: topo.Mean, TopoMax: topo.Max,
		})
	}
	ns := make([]float64, len(pts))
	rm := make([]float64, len(pts))
	mm := make([]float64, len(pts))
	for i, p := range pts {
		ns[i] = float64(p.N)
		rm[i] = p.RoundsMean
		mm[i] = p.MessagesMean
	}
	_, roundsExp := stats.LogScalingExponent(ns, rm)
	_, msgsExp := stats.LogScalingExponent(ns, mm)
	tb := &stats.Table{Header: []string{"n", "rounds-mean", "rounds-max", "msgs-mean", "msgs-max", "topo-mean", "topo-max"}}
	for _, p := range pts {
		tb.AddF(p.N, p.RoundsMean, p.RoundsMax, p.MessagesMean, p.MessagesMax, p.TopoMean, p.TopoMax)
	}
	fmt.Fprintf(w, "THM1: per-step cost scaling, staggered mode (%d steps per size)\n%s", steps, tb)
	fmt.Fprintf(w, "power-law exponents: rounds %.3f, messages %.3f (log-shaped << 1)\n\n", roundsExp, msgsExp)
	return pts, roundsExp, msgsExp
}

// ---------------------------------------------------------------------------
// GAP: spectral gap series - DEX constant, baselines degrade
// ---------------------------------------------------------------------------

// GapSeries runs the adaptive cut-thinning adversary against DEX,
// Law-Siu and the flip chain, printing a gap time series and returning
// the minimum gap per algorithm.
func GapSeries(w io.Writer, n0, steps, sampleEvery int, seed int64) map[string]float64 {
	mk := map[string]func() harness.Maintainer{
		"dex": func() harness.Maintainer { return newDex(n0, dex.Staggered, seed) },
		"law-siu": func() harness.Maintainer {
			nw, err := lawsiu.New(n0, 3, seed)
			if err != nil {
				panic(err)
			}
			return harness.LawSiuMaintainer{Network: nw}
		},
		"flip-chain": func() harness.Maintainer {
			nw, err := flipgraph.New(n0, 6, seed)
			if err != nil {
				panic(err)
			}
			return harness.FlipMaintainer{Network: nw}
		},
	}
	series := make(map[string][]float64)
	mins := make(map[string]float64)
	order := []string{"dex", "law-siu", "flip-chain"}
	for _, name := range order {
		m := mk[name]()
		recs, err := harness.Run(m, &harness.CutThinning{}, harness.RunConfig{
			Steps: steps, Seed: seed, GapEvery: sampleEvery,
		})
		if err != nil {
			panic(err)
		}
		min := math.Inf(1)
		for _, r := range recs {
			if r.Gap == r.Gap {
				series[name] = append(series[name], r.Gap)
				if r.Gap < min {
					min = r.Gap
				}
			}
		}
		mins[name] = min
	}
	fmt.Fprintf(w, "GAP: spectral gap under adaptive cut-thinning churn (n0=%d, %d steps, sample every %d)\n",
		n0, steps, sampleEvery)
	tb := &stats.Table{Header: append([]string{"sample"}, order...)}
	for i := range series["dex"] {
		row := []string{fmt.Sprintf("%d", i*sampleEvery)}
		for _, name := range order {
			v := math.NaN()
			if i < len(series[name]) {
				v = series[name][i]
			}
			row = append(row, fmt.Sprintf("%.4f", v))
		}
		tb.Add(row...)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "min gaps: dex %.4f, law-siu %.4f, flip-chain %.4f\n\n",
		mins["dex"], mins["law-siu"], mins["flip-chain"])
	return mins
}

// ---------------------------------------------------------------------------
// AMORT: Corollary 1 - amortized costs with simplified type-2
// ---------------------------------------------------------------------------

// AmortizedResult captures Corollary 1's quantities.
type AmortizedResult struct {
	Steps          int
	Type2Steps     int
	MinSeparation  int // min #type-1 steps between consecutive type-2 events
	AmortRounds    float64
	AmortMessages  float64
	AmortTopo      float64
	SpikeMaxRounds float64
}

// Amortized measures simplified-mode churn, the frequency of type-2
// rebuilds, and Lemma 8's separation between them.
func Amortized(w io.Writer, n0, steps int, seed int64) AmortizedResult {
	m := newDex(n0, dex.Simplified, seed)
	rng := rand.New(rand.NewSource(seed))
	res := AmortizedResult{Steps: steps, MinSeparation: steps}
	var rounds, msgs, topo float64
	lastType2 := -1
	maxR := 0.0
	for i := 0; i < steps; i++ {
		nodes := m.Nodes()
		var err error
		if rng.Float64() < 0.8 || m.Size() <= 6 {
			err = m.Insert(m.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			err = m.Delete(nodes[rng.Intn(len(nodes))])
		}
		if err != nil {
			panic(err)
		}
		st := m.LastStep()
		rounds += float64(st.Rounds)
		msgs += float64(st.Messages)
		topo += float64(st.TopologyChanges)
		if float64(st.Rounds) > maxR {
			maxR = float64(st.Rounds)
		}
		if st.Recovery != dex.RecoveryType1 {
			res.Type2Steps++
			if lastType2 >= 0 && i-lastType2 < res.MinSeparation {
				res.MinSeparation = i - lastType2
			}
			lastType2 = i
		}
	}
	res.AmortRounds = rounds / float64(steps)
	res.AmortMessages = msgs / float64(steps)
	res.AmortTopo = topo / float64(steps)
	res.SpikeMaxRounds = maxR
	fmt.Fprintf(w, "AMORT: simplified type-2, insert-heavy churn (n0=%d, %d steps)\n", n0, steps)
	fmt.Fprintf(w, "type-2 rebuilds: %d, min separation: %d steps\n", res.Type2Steps, res.MinSeparation)
	fmt.Fprintf(w, "amortized per step: rounds %.1f, messages %.1f, topology changes %.1f (spike max rounds %.0f)\n\n",
		res.AmortRounds, res.AmortMessages, res.AmortTopo, res.SpikeMaxRounds)
	return res
}

// ---------------------------------------------------------------------------
// DHT: Section 4.4.4 costs
// ---------------------------------------------------------------------------

// DHTPoint is one size sample of the DHT sweep.
type DHTPoint struct {
	N          int
	PutMean    float64
	GetMean    float64
	PutMax     float64
	LogN       float64
	MaxPerNode int
}

// DHTCosts sweeps sizes and measures per-op routing costs and storage
// balance; returns the points and the fitted power exponent of the mean
// put cost (log-shaped when << 1).
func DHTCosts(w io.Writer, sizes []int, ops int, seed int64) ([]DHTPoint, float64) {
	var pts []DHTPoint
	for _, n := range sizes {
		m := newDex(n, dex.Staggered, seed)
		d := dht.New(m)
		rng := rand.New(rand.NewSource(seed))
		var putc, getc []float64
		for i := 0; i < ops; i++ {
			origin := m.Nodes()[rng.Intn(m.Size())]
			key := fmt.Sprintf("key-%d", i)
			s := d.Put(origin, key, "v")
			putc = append(putc, float64(s.Messages))
			_, _, g := d.Get(origin, key)
			getc = append(getc, float64(g.Messages))
		}
		put := stats.Summarize(putc)
		get := stats.Summarize(getc)
		maxPer := 0
		for _, c := range d.ItemsPerNode() {
			if c > maxPer {
				maxPer = c
			}
		}
		pts = append(pts, DHTPoint{
			N: n, PutMean: put.Mean, GetMean: get.Mean, PutMax: put.Max,
			LogN: math.Log2(float64(n)), MaxPerNode: maxPer,
		})
	}
	ns := make([]float64, len(pts))
	pm := make([]float64, len(pts))
	for i, p := range pts {
		ns[i] = float64(p.N)
		pm[i] = p.PutMean
	}
	_, exp := stats.LogScalingExponent(ns, pm)
	tb := &stats.Table{Header: []string{"n", "put-mean(msgs)", "get-mean(msgs)", "put-max", "log2(n)", "max-items/node"}}
	for _, p := range pts {
		tb.AddF(p.N, p.PutMean, p.GetMean, p.PutMax, p.LogN, p.MaxPerNode)
	}
	fmt.Fprintf(w, "DHT: insert/lookup costs (%d ops per size)\n%spower-law exponent of put cost: %.3f\n\n", ops, tb, exp)
	return pts, exp
}

// ---------------------------------------------------------------------------
// MULTI: Corollary 2 - batch churn
// ---------------------------------------------------------------------------

// MultiResult captures the batch-churn measurements.
type MultiResult struct {
	Batches        int
	MsgsPerBatch   float64
	RoundsPerBatch float64
	NRef           int
}

// MultiBatch alternates insert and delete batches of n*eps nodes.
func MultiBatch(w io.Writer, n0 int, eps float64, batches int, seed int64) MultiResult {
	m := newDex(n0, dex.Simplified, seed)
	rng := rand.New(rand.NewSource(seed))
	var msgs, rounds float64
	done := 0
	for b := 0; b < batches; b++ {
		n := m.Size()
		k := int(eps * float64(n))
		if k < 1 {
			k = 1
		}
		if b%2 == 0 {
			var specs []dex.InsertSpec
			nodes := m.Nodes()
			for i := 0; i < k; i++ {
				specs = append(specs, dex.InsertSpec{ID: m.FreshID(), Attach: nodes[rng.Intn(len(nodes))]})
			}
			if err := m.InsertBatch(specs); err != nil {
				panic(err)
			}
		} else {
			nodes := m.Nodes()
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			if err := m.DeleteBatch(nodes[:k]); err != nil {
				continue // adversary must pick a legal victim set
			}
		}
		st := m.LastStep()
		msgs += float64(st.Messages)
		rounds += float64(st.Rounds)
		done++
	}
	res := MultiResult{Batches: done, MsgsPerBatch: msgs / float64(done),
		RoundsPerBatch: rounds / float64(done), NRef: m.Size()}
	fmt.Fprintf(w, "MULTI: batch churn eps=%.3f (%d batches, final n=%d)\n", eps, done, res.NRef)
	fmt.Fprintf(w, "per batch: messages %.0f (budget O(n log^2 n) = %.0f), rounds %.0f (budget O(log^3 n) = %.0f)\n\n",
		res.MsgsPerBatch, float64(res.NRef)*math.Pow(math.Log2(float64(res.NRef)), 2),
		res.RoundsPerBatch, math.Pow(math.Log2(float64(res.NRef)), 3))
	return res
}

// ---------------------------------------------------------------------------
// FIG-W: walk hit-rate (Lemma 2 mechanism)
// ---------------------------------------------------------------------------

// WalkHitRate plants |Spare| ~ frac*n and measures the probability that a
// c*log2(n)-step walk finds it, per walk-length factor.
func WalkHitRate(w io.Writer, n0 int, frac float64, trials int, seed int64) map[int]float64 {
	m := newDex(n0, dex.Staggered, seed)
	// Churn to a steady state where ~frac of nodes are Spare: grow until
	// p/n ~ 1/(1-frac)... simpler: measure against the live Spare set at
	// whatever density the churn produced, reporting the density too.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n0*2; i++ {
		nodes := m.Nodes()
		m.Insert(m.FreshID(), nodes[rng.Intn(len(nodes))])
	}
	g := m.Graph()
	density := float64(m.SpareCount()) / float64(m.Size())
	out := make(map[int]float64)
	logN := int(math.Ceil(math.Log2(float64(m.Size()))))
	for _, c := range []int{1, 2, 4, 8} {
		hits := 0
		for tr := 0; tr < trials; tr++ {
			nodes := m.Nodes()
			start := nodes[rng.Intn(len(nodes))]
			res := walkOnce(g, start, c*logN, rng.Uint64(), func(u core.NodeID) bool {
				return m.Load(u) >= 2
			})
			if res {
				hits++
			}
		}
		out[c] = float64(hits) / float64(trials)
	}
	fmt.Fprintf(w, "FIG-W: walk hit rate into Spare (|Spare|/n = %.2f, n = %d, %d trials)\n", density, m.Size(), trials)
	for _, c := range []int{1, 2, 4, 8} {
		fmt.Fprintf(w, "  walk length %d*log2(n): hit rate %.3f\n", c, out[c])
	}
	fmt.Fprintln(w)
	return out
}

// ---------------------------------------------------------------------------
// FIG-R: permutation routing rounds on Z(p)
// ---------------------------------------------------------------------------

// PermRouting measures store-and-forward routing on Z(p) for the two
// instances that matter: (a) the inflation instance - each old vertex x
// routes to the old vertex that will generate the inverse of x's first
// cloud vertex in Z(p_new), which is what Phase 1 of type-2 recovery
// actually solves over the old cycle's edges - and (b) a seeded random
// permutation as the general worst-case-shape reference. (Routing x to
// its own chord partner x^{-1} is trivially one hop - the chord is a
// direct edge - which is why that is not the measured instance.)
func PermRouting(w io.Writer, ps []int64) map[int64]int {
	out := make(map[int64]int)
	tb := &stats.Table{Header: []string{"p", "inflation-rounds", "inflation-maxq", "random-rounds", "random-maxq", "log2(p)^2"}}
	for _, p := range ps {
		z, err := pcycle.New(p)
		if err != nil {
			panic(err)
		}
		inf, err := pcycle.NewInflation(p)
		if err != nil {
			panic(err)
		}
		zNew, err := pcycle.New(inf.PNew)
		if err != nil {
			panic(err)
		}
		inflDest := func(x pcycle.Vertex) pcycle.Vertex {
			y := inf.CloudStart(x)
			return inf.OldOwner(zNew.Inv(y))
		}
		r1, q1 := z.RoutePermutation(inflDest)
		rng := rand.New(rand.NewSource(p))
		perm := rng.Perm(int(p))
		r2, q2 := z.RoutePermutation(func(x pcycle.Vertex) pcycle.Vertex {
			return pcycle.Vertex(perm[x])
		})
		out[p] = r1
		if r2 > out[p] {
			out[p] = r2
		}
		l := math.Log2(float64(p))
		tb.AddF(p, r1, q1, r2, q2, l*l)
	}
	fmt.Fprintf(w, "FIG-R: permutation routing on Z(p) (inflation instance + random reference)\n%s\n", tb)
	return out
}

// ---------------------------------------------------------------------------
// NAIVE: Section 3 strawmen
// ---------------------------------------------------------------------------

// NaiveCosts compares DEX with the strawmen across sizes; returns
// messages-per-op means keyed by "algorithm/n".
func NaiveCosts(w io.Writer, sizes []int, steps int, seed int64) map[string]float64 {
	out := make(map[string]float64)
	tb := &stats.Table{Header: []string{"algorithm", "n", "msgs-mean", "rounds-mean", "topo-mean"}}
	for _, n := range sizes {
		for _, name := range []string{"dex", "flooding", "global-knowledge"} {
			var m harness.Maintainer
			switch name {
			case "dex":
				m = newDex(n, dex.Staggered, seed)
			case "flooding":
				nf, err := naive.New(n, naive.Flooding)
				if err != nil {
					panic(err)
				}
				m = harness.NaiveMaintainer{Network: nf}
			default:
				ng, err := naive.New(n, naive.GlobalKnowledge)
				if err != nil {
					panic(err)
				}
				m = harness.NaiveMaintainer{Network: ng}
			}
			recs, err := harness.Run(m, harness.RandomChurn{PInsert: 0.5}, harness.RunConfig{Steps: steps, Seed: seed})
			if err != nil {
				panic(err)
			}
			rounds, msgs, topo, _, _ := harness.Summaries(recs)
			out[fmt.Sprintf("%s/%d", name, n)] = msgs.Mean
			tb.AddF(name, n, msgs.Mean, rounds.Mean, topo.Mean)
		}
	}
	fmt.Fprintf(w, "NAIVE: Section 3 strawmen vs DEX (%d steps)\n%s\n", steps, tb)
	return out
}

// walkOnce is a tiny wrapper over the congest walk for FIG-W. It steps
// through the graph arena's zero-allocation RandomNeighborStep accessor,
// which draws the identical multiplicity-weighted choice the historical
// slice-building loop made for the same congest.SplitMix64 stream.
func walkOnce(g interface {
	RandomNeighborStep(u, exclude core.NodeID, r uint64) (core.NodeID, bool)
}, start core.NodeID, maxLen int, seed uint64, stop func(core.NodeID) bool) bool {
	cur, state := start, seed
	for s := 0; s < maxLen; s++ {
		var r uint64
		state, r = congest.SplitMix64(state)
		next, ok := g.RandomNeighborStep(cur, -1, r)
		if !ok {
			return false
		}
		cur = next
		if stop(cur) {
			return true
		}
	}
	return false
}
