package main

import (
	"fmt"
	"math/rand"

	"repro/dex"
)

// workload is one named input set: how the network is built and grown
// before the timed window, and which operations the window issues.
type workload struct {
	name    string
	why     string
	mode    dex.Mode
	durable bool // persistence, sampled audit, async edge events and a mirroring subscriber
	initial int  // nodes at construction
	growTo  int  // set-up grows the network to this size by single joins (0: no growth)
	// waveHigh, when set, makes the window swing between initial and
	// waveHigh nodes instead of issuing a 50/50 mix.
	waveHigh int
	rate     float64 // window operations per --seconds (sized on the reference host)
}

func (w workload) wave() bool { return w.waveHigh > 0 }

const (
	checkpointEvery = 4096
	// historyCap bounds the per-step metrics log. Uncapped it keeps
	// 112 bytes per step forever, and heap_mb would count the log
	// instead of the overlay.
	historyCap = 4096
	// minWindowOps keeps dex.op_p999_us reportable: a p99.9 needs 10,000
	// samples to leave minBeyond of them above it, and a traced run takes
	// it from the untraced half of its window.
	minWindowOps = 20_000
)

// The rates fix each window's op count, not its duration, so two commits
// always measure the same work: a faster commit finishes sooner instead
// of running more (and different) operations. On the reference host (a
// 2-CPU virtual machine reporting "Intel(R) Xeon(R) Processor", 8 GB of
// RAM, Go 1.24) at its probe speed (see probe.go), the windows of the
// first three workloads take about 0.7 × --seconds and
// rebuild-simplified's about 2.2 × --seconds. Its delete p99 sits where the deletes that flood
// begin, about 1% of them, so it moves with each window's share of
// flooding deletes, and only a longer window averages that out (see
// README.md).
var workloads = []workload{
	{
		name:    "durable-full",
		why:     "1e5-node Staggered churn through NewConcurrent with WAL + checkpoints, sampled audit and async edge events into a mirror: persist, audit and events dominate",
		mode:    dex.Staggered,
		durable: true,
		initial: 256,
		growTo:  100_000,
		rate:    16_000,
	},
	{
		name:    "steady-uniform",
		why:     "bare Staggered network grown to 1e5 nodes by single joins, 50/50 uniform churn: type-1 recovery in core and small graph edits only",
		mode:    dex.Staggered,
		initial: 256,
		growTo:  100_000,
		rate:    100_000,
	},
	{
		name:     "rebuild-staggered",
		why:      "Staggered waves 256<->4096 nodes (90%/10% inserts): staggered inflations and deflations put Theorem 1's worst case in the tail",
		mode:     dex.Staggered,
		initial:  256,
		waveHigh: 4096,
		rate:     90_000,
	},
	{
		// Smaller waves than rebuild-staggered's, and many more of them:
		// a Simplified wave's cost depends on the seed and on the p it
		// starts from, so a window must average dozens of waves, and
		// 256<->4096 waves take 6 to 25 s each (see README.md).
		name:     "rebuild-simplified",
		why:      "Simplified waves 64<->1024 nodes: a size-count flood per failed walk and a few one-shot rebuilds (Corollary 1's amortized cost)",
		mode:     dex.Simplified,
		initial:  64,
		waveHigh: 1024,
		rate:     16_000,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size fixes the scale of one run. The benchmark derives it from the
// workload and --seconds; the tests shrink it.
type size struct {
	initial  int // nodes at construction; the low end of a wave
	growTo   int
	waveHigh int // 0: no waves
	ops      int // window op budget; waves run on until the current wave ends
}

func fullSize(w workload, seconds int) size {
	ops := int(w.rate * float64(seconds))
	if ops < minWindowOps {
		ops = minWindowOps
	}
	return size{initial: w.initial, growTo: w.growTo, waveHigh: w.waveHigh, ops: ops}
}

// op is one adversarial operation: a join of id at attach, or the
// departure of id.
type op struct {
	del    bool
	id     dex.NodeID
	attach dex.NodeID
}

// gen is the benchmark's own load generator. It keeps the live-id set
// itself (a slice with swap-remove), mints ids from its own counter and
// draws victims and attach points uniformly from its own source, so the
// operation stream depends on the seed alone and never on engine
// internals such as SampleNode's node order.
type gen struct {
	rng       *rand.Rand
	live      []dex.NodeID
	nextID    dex.NodeID
	low, high int // wave bounds; high == 0: a 50/50 mix instead
	growing   bool
}

func newGen(w workload, sz size, seed int64) *gen {
	g := &gen{
		// The engine is seeded with seed itself; offsetting the
		// generator's source keeps the two random streams distinct.
		rng:     rand.New(rand.NewSource(seed ^ 0x2545f4914f6cdd1d)),
		nextID:  dex.NodeID(sz.initial),
		low:     sz.initial,
		high:    sz.waveHigh,
		growing: true,
	}
	g.live = make([]dex.NodeID, sz.initial, max(sz.initial, sz.growTo, sz.waveHigh)+1024)
	for i := range g.live {
		g.live[i] = dex.NodeID(i)
	}
	return g
}

func (g *gen) insert() op {
	attach := g.live[g.rng.Intn(len(g.live))]
	id := g.nextID
	g.nextID++
	g.live = append(g.live, id)
	return op{id: id, attach: attach}
}

func (g *gen) delete() op {
	i := g.rng.Intn(len(g.live))
	id := g.live[i]
	last := len(g.live) - 1
	g.live[i] = g.live[last]
	g.live = g.live[:last]
	return op{del: true, id: id}
}

// next draws the window's next operation.
func (g *gen) next() op {
	if g.high == 0 {
		if g.rng.Intn(2) == 0 {
			return g.insert()
		}
		return g.delete()
	}
	switch n := len(g.live); {
	case n <= g.low:
		g.growing = true
		return g.insert()
	case n >= g.high:
		g.growing = false
		return g.delete()
	}
	pInsert := 0.1
	if g.growing {
		pInsert = 0.9
	}
	if g.rng.Float64() < pInsert {
		return g.insert()
	}
	return g.delete()
}

// waveDone reports whether a wave has just come back down to its low
// end, where a window may stop: ending every rebuild window at the same
// size keeps heap_mb comparable across seeds.
func (g *gen) waveDone() bool { return g.high == 0 || (!g.growing && len(g.live) <= g.low) }

// setUp issues the set-up operations: the joins that take the network
// to target nodes and, on wave workloads, one whole wave. Constructing
// a few hundred nodes takes well under a millisecond, and a time that
// short swings by half from run to run; with the wave, set-up covers the
// network's first inflation and deflation, and every window starts from
// a network that has been through them.
func (g *gen) setUp(target int, apply func(op) error) error {
	for len(g.live) < target {
		if err := apply(g.insert()); err != nil {
			return fmt.Errorf("grow to %d at %d nodes: %w", target, len(g.live), err)
		}
	}
	for g.high > 0 {
		if err := apply(g.next()); err != nil {
			return fmt.Errorf("first wave at %d nodes: %w", len(g.live), err)
		}
		if g.waveDone() {
			break
		}
	}
	return nil
}
