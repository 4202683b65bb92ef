package main

import (
	"math/rand"
	"sort"
)

// The host-speed probe. The reference host is a shared virtual machine:
// its speed drifts by up to ±30% over minutes as other tenants load the
// machine, and every timing of the program drifts with it, so two runs
// minutes apart disagree by more than any bound worth setting. The
// probe is a fixed kernel that runs none of the program's code: a
// pointer chase around one random cycle over 128 KiB, a load-latency
// loop that stays in the core's own L2 cache. It runs between
// operations every probeEvery, outside every timing. A run's slowdown
// is its median probe time over refProbeNs, and the end-to-end timings
// are divided by it, so they read as the reference host's at a quiet
// moment. Over 12 minutes of drift on that host, 10-second averages of
// the probe time and of rebuild-staggered's op time moved together
// (r = 0.9), and dividing one by the other halved their spread.
const (
	probeBytes = 128 << 10
	probeHops  = 250_000
	probeEvery = 100_000_000 // ns
	// refProbeNs is the median probe time on the reference host.
	refProbeNs = 1_090_000
)

type probe struct {
	ring  []int32
	pos   int32
	ns    []int64 // every reading
	last  int64   // when the last reading ended
	spent int64   // total time spent probing
}

func newProbe() *probe {
	p := &probe{ring: make([]int32, probeBytes/4)}
	// Sattolo's shuffle of the identity is one cycle through every slot
	// in random order, so the chase defeats the prefetchers.
	for i := range p.ring {
		p.ring[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(p.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.ring[i], p.ring[j] = p.ring[j], p.ring[i]
	}
	p.run()
	return p
}

// run takes one reading.
func (p *probe) run() {
	t := now()
	x := p.pos
	for i := 0; i < probeHops; i++ {
		x = p.ring[x]
	}
	p.pos = x
	p.last = now()
	p.ns = append(p.ns, p.last-t)
	p.spent += p.last - t
}

// tick takes a reading if probeEvery has passed since the last one. A
// nil probe does nothing.
func (p *probe) tick(t int64) {
	if p != nil && t-p.last >= probeEvery {
		p.run()
	}
}

// slowdown returns the host's slowdown over all readings so far
// against the reference host.
func (p *probe) slowdown() float64 {
	c := append([]int64(nil), p.ns...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return float64(c[len(c)/2]) / refProbeNs
}
