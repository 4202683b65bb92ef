package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// heapDelta reports the runtime.MemStats heap growth attributable to
// build(), with a GC fence on both sides so transient garbage does not
// count against the representation being measured.
func heapDelta(build func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestScaleGraphMemoryFootprint is the substrate memory gate: one
// deterministic 10^5-node maintenance trace — a DEX-contraction-shaped
// base overlay followed by staggered-rebuild-style degree spikes (each
// cohort of nodes transiently triples its degree, as nodes carrying both
// the old and new cycle do, then drops back) — is replayed into the flat
// adjacency arena and into the map-of-maps Ref baseline, and the retained
// runtime.MemStats bytes/node are compared. The arena must end at least
// 2x below the maps and under an absolute budget. This is the regression
// tripwire for the "~1GB of adjacency maps at n=10^6" headroom the arena
// reclaims: a Go map never returns spare buckets after a spike, while the
// arena shrinks runs back into the shared free lists for the next cohort.
func TestScaleGraphMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("memory footprint gate skipped in -short mode")
	}
	const (
		n = 100_000
		// Bytes/node budget for the arena after the spike trace (~6 live
		// distinct neighbors). Measured 289 B/node (299.97 with 32-byte
		// slot records): the cell pool is 222 of it (1.39M 16-byte cells
		// of capacity for 0.58M live ones, the rest run rounding, free
		// runs and append slack), the 20-byte slot records 21, the id index
		// map ~27, ids 9 and the dense id->slot array 8. The 10% headroom
		// absorbs the few KB of run-to-run heap noise around that
		// figure; a lost shrinkRun (624 B/node) or any 2x blow-up still
		// fails.
		arenaBudget = 330
		spike       = 12 // extra edges per node during its rebuild cohort
		cohort      = 64 // nodes rebuilding concurrently (theta-staggered)
	)
	// The trace is precomputed so both representations replay byte-for-byte
	// the same operations.
	type op struct {
		u, v NodeID
		add  bool
	}
	rng := rand.New(rand.NewSource(9))
	var trace []op
	for i := 0; i < n; i++ {
		u := NodeID(i)
		trace = append(trace, op{u, NodeID((i + 1) % n), true})
		trace = append(trace, op{u, NodeID(rng.Intn(n)), true})
		switch i % 16 {
		case 0:
			trace = append(trace, op{u, u, true}) // self-loop
		case 1:
			trace = append(trace, op{u, NodeID((i + 1) % n), true}) // parallel
		default:
			trace = append(trace, op{u, NodeID(rng.Intn(n)), true})
		}
	}
	order := rng.Perm(n)
	for c := 0; c < n; c += cohort {
		end := c + cohort
		if end > n {
			end = n
		}
		var spiked []op
		for _, i := range order[c:end] {
			u := NodeID(i)
			for s := 0; s < spike; s++ {
				e := op{u, NodeID(rng.Intn(n)), true}
				trace = append(trace, e)
				spiked = append(spiked, e)
			}
		}
		for _, e := range spiked {
			trace = append(trace, op{e.u, e.v, false})
		}
	}

	replay := func(add func(u, v NodeID), remove func(u, v NodeID) bool) {
		for _, o := range trace {
			if o.add {
				add(o.u, o.v)
			} else if !remove(o.u, o.v) {
				t.Fatalf("trace removal of absent edge {%d,%d}", o.u, o.v)
			}
		}
	}
	var arena *Graph
	arenaBytes := heapDelta(func() {
		arena = New()
		replay(arena.AddEdge, arena.RemoveEdge)
	})
	var ref *Ref
	refBytes := heapDelta(func() {
		ref = NewRef()
		replay(ref.AddEdge, ref.RemoveEdge)
	})

	if arena.NumEdges() != ref.NumEdges() || arena.NumNodes() != ref.NumNodes() {
		t.Fatalf("replays diverged: arena %d/%d, ref %d/%d",
			arena.NumNodes(), arena.NumEdges(), ref.NumNodes(), ref.NumEdges())
	}
	if err := arena.Validate(); err != nil {
		t.Fatal(err)
	}
	arenaPer := float64(arenaBytes) / n
	refPer := float64(refBytes) / n
	t.Logf("n=%d after rebuild-spike churn: arena %.0f B/node (%.1f MB), map-of-maps %.0f B/node (%.1f MB), ratio %.1fx",
		n, arenaPer, float64(arenaBytes)/(1<<20), refPer, float64(refBytes)/(1<<20), refPer/arenaPer)
	if 2*arenaBytes > refBytes {
		t.Fatalf("arena %.0f B/node is not >=2x below the map-of-maps baseline %.0f B/node", arenaPer, refPer)
	}
	if arenaPer > arenaBudget {
		t.Fatalf("arena %.0f B/node exceeds the %d B/node budget", arenaPer, arenaBudget)
	}
	runtime.KeepAlive(arena)
	runtime.KeepAlive(ref)
	// The trace must stay reachable through both measurements: if it died
	// inside the second replay, its collection would be credited against
	// that representation's footprint.
	runtime.KeepAlive(trace)
}
