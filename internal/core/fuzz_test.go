package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// biasedSource is the adversarial walk-seed generator for fuzzing: a
// rand.Source64 that cycles a short window of fuzz-chosen values
// instead of a healthy stream. The engine's only RNG consumer is the
// walk-seed draw (walkSeed), so a constant window makes every retry of
// a missed walk replay the identical trajectory — the worst case the
// paper's "retry forever" argument never has to face — driving the
// engine into its retry-exhaustion ladders, deterministic fallbacks
// (fallbackRebalance, fallbackAssign, forced contender scans), and the
// orphan-rescue path, all of which must keep the differential oracle
// silent.
type biasedSource struct {
	vals []uint64
	i    int
}

// newBiasedSource decodes the window from the trace's own bytes: the
// window length comes from the header, each byte expands to an extreme
// value (0 and 255 map to the two constant-seed corners, everything
// else to a fixed splitmix expansion). Decoding is deterministic, so
// crashing inputs replay exactly.
func newBiasedSource(data []byte) *biasedSource {
	width := 1 + int(data[0]&3)
	vals := make([]uint64, 0, width)
	for i := 0; i < width; i++ {
		b := byte(0)
		if 2+i < len(data) {
			b = data[2+i]
		}
		switch b {
		case 0:
			vals = append(vals, 0)
		case 255:
			vals = append(vals, ^uint64(0))
		default:
			z := uint64(b) * 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			vals = append(vals, z^(z>>27))
		}
	}
	return &biasedSource{vals: vals}
}

func (b *biasedSource) Uint64() uint64 {
	v := b.vals[b.i%len(b.vals)]
	b.i++
	return v
}

func (b *biasedSource) Int63() int64 { return int64(b.Uint64() >> 1) }
func (b *biasedSource) Seed(int64)   {}

// FuzzChurnTrace decodes an arbitrary byte string into a DEX operation
// trace - header (seed, mode, adversarial-RNG flag, initial size),
// then one operation per byte pair - and replays it under the
// differential oracle: after every operation the incrementally
// maintained real graph must equal a shadow full rebuild, the sampled
// audit must stay silent, and the exhaustive CheckInvariants must
// hold. Setting bit 1 of the second header byte swaps the engine's
// random source for the biasedSource above, so the fuzzer also steers
// the walk seeds themselves (the ROADMAP's adversarial-RNG tier). Bit 7
// of the first header byte chooses when the overlay view is observed:
// set, from construction; clear, only halfway through the trace, so the
// first half runs on derived reads (until a Simplified flood observes
// it earlier; a DeleteBatch's checks and a one-step rebuild read no view
// either, and only the mean load keeps one for the walks), which the
// oracle checks against the rebuild instead. An edge observer,
// registered from construction, feeds a mirror that must equal the
// rebuild at every check. Run it with `make fuzz` or
//
//	go test ./internal/core -run '^$' -fuzz FuzzChurnTrace
//
// The seed corpus replays as part of the ordinary test suite, covering
// insert-heavy (inflation), delete-heavy (deflation), batch, and
// stuck-seed traces in both recovery modes.
func FuzzChurnTrace(f *testing.F) {
	inflate := []byte{7, 1} // staggered, n0 = 8
	for i := 0; i < 120; i++ {
		inflate = append(inflate, 0, byte(i*13))
	}
	f.Add(inflate)

	deflate := []byte{3, 0}   // simplified, n0 = 8
	for i := 0; i < 40; i++ { // grow first so there is room to shrink
		deflate = append(deflate, 0, byte(i*7))
	}
	for i := 0; i < 90; i++ {
		deflate = append(deflate, 1, byte(i*11))
	}
	f.Add(deflate)

	batches := []byte{9, 21} // staggered, n0 = 10
	for i := 0; i < 60; i++ {
		batches = append(batches, byte(2+i%2), byte(i*29))
	}
	f.Add(batches)

	f.Add([]byte{0, 0})
	f.Add([]byte{255, 255, 0, 0, 1, 1, 2, 2, 3, 3})

	// Adversarial-RNG seeds: constant walk seeds (every retry replays
	// the same trajectory) in the tight-zeta regime, where the scarce
	// acceptor sets turn stuck seeds into retry exhaustion. The traces
	// grow first, then deep-crash so deflations (and the feasibility
	// floor) fire under the biased stream, in both modes.
	for _, hdr := range [][]byte{
		{0, 7, 0, 0},      // staggered, zeta=3, width-1 window of zeros
		{1, 6, 255, 255},  // simplified, zeta=3, all-ones seeds
		{2, 135, 37, 251}, // staggered, zeta=3, n0=24, mixed window
	} {
		stuck := append([]byte{}, hdr...)
		for i := 0; i < 70; i++ {
			stuck = append(stuck, 0, byte(i*13)) // grow
		}
		for i := 0; i < 130; i++ {
			stuck = append(stuck, 1, byte(i*11)) // deep crash
		}
		f.Add(stuck)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		cfg := DefaultConfig()
		cfg.Seed = int64(data[0]) + 1
		if data[1]&1 == 0 {
			cfg.Mode = Simplified
		}
		if data[1]&4 != 0 {
			// Tight-zeta regime: acceptor sets go scarce under churn, so
			// walks actually miss and the retry/fallback ladders (and the
			// deflation feasibility floor) see real traffic.
			cfg.Zeta = 3
		}
		n0 := 8 + int(data[1]>>3) // 8..39
		nw, err := New(n0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if data[1]&2 != 0 {
			// Adversarial RNG: the fuzzer chooses the walk-seed stream.
			// Tighter retry and walk-length caps reach the exhaustion
			// ladders sooner (a stuck seed makes every retry identical
			// anyway) and keep an adversarial exec — whose rebuild
			// fallbacks otherwise grind through epochCap*T virtual-walk
			// hops — within fuzzing's per-input time budget.
			cfg.WalkRetryLimit = 12
			cfg.WalkFactor = 2
			nw, err = New(n0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nw.SetRNG(rand.New(newBiasedSource(data)))
		}
		mirror := mirrorEdges(nw)
		// Under a fuzzer-chosen random source the paper's load bounds are
		// only whp guarantees and the engine's tolerated walk-exhaustion
		// paths can overshoot them; the oracle then drops to structural
		// exactness (checkInvariants without bounds). Everything else —
		// contraction equality, surjectivity, counters, stagger
		// bookkeeping, the edge events — must hold unconditionally.
		check := func(tag string) {
			if err := mirror.matches(nw.RecomputeGraph()); err != nil {
				t.Fatalf("%s (%s): edge events: %v", tag, nw.RebuildDebug(), err)
			}
			if data[1]&2 != 0 && nw.walkExhaustion > 0 {
				if err := nw.checkInvariants(false); err != nil {
					t.Fatalf("%s (%s, adversarial rng): %v", tag, nw.RebuildDebug(), err)
				}
				return
			}
			if err := checkDifferentialState(nw); err != nil {
				t.Fatalf("%s (%s): %v", tag, nw.RebuildDebug(), err)
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatalf("%s (%s): %v", tag, nw.RebuildDebug(), err)
			}
		}
		ops := data[2:]
		if len(ops) > 400 {
			ops = ops[:400] // bound trace length so each input stays fast
		}
		if data[1]&2 != 0 && len(ops) > 280 {
			ops = ops[:280] // adversarial ops are far more expensive each
		}
		observeAt := len(ops) / 2
		if data[0]&0x80 != 0 {
			observeAt = 0
		}
		for i := 0; i+1 < len(ops); i += 2 {
			if i == observeAt&^1 {
				nw.Graph()
			}
			applyTraceOp(t, nw, ops[i], ops[i+1])
			// The exhaustive oracle is O(p) per check; checking every
			// operation is affordable while the network is small (where
			// the mutation space lives) and a divergence never self-heals,
			// so a stride loses nothing on grown traces.
			if nw.P() > 2048 && (i/2)%8 != 0 {
				continue
			}
			check(fmt.Sprintf("op %d", i/2))
		}
		check("final")
		if data[1]&2 == 0 || nw.walkExhaustion == 0 {
			if err := checkEveryNode(nw); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzDerivedChurn fuzzes the regime a durable, evented façade runs: a
// Staggered network at the default zeta whose only observer is an edge
// observer registered from construction, so every read is derived from
// the mapping and no view is ever kept. The header picks the seed
// (first byte) and the initial size, 8 + second byte % 32; each
// following (op, arg) byte pair is a single insert (op even) or delete
// (op odd) decoded by applyTraceOp. After every operation the
// differential oracle (checkDifferentialState, whose sampled audit
// checks simSlot on this path) must hold, the mirror the edge events
// feed must equal the full rebuild, CheckInvariants must pass, and
// nothing may have observed the overlay. (The engine still keeps a view
// for its own walks while the mean load exceeds viewOnLoad, which a
// shrinking network passes before it deflates; see steerView.) Run it
// with `make fuzz` or
//
//	go test ./internal/core -run '^$' -fuzz FuzzDerivedChurn
//
// The seeds grow a network through a staggered inflation and shrink one
// through a staggered deflation.
func FuzzDerivedChurn(f *testing.F) {
	grow := []byte{0, 0} // n0 = 8
	for i := 0; i < 150; i++ {
		grow = append(grow, 0, byte(i*13))
	}
	f.Add(grow)
	shrink := []byte{1, 24} // n0 = 32
	for i := 0; i < 60; i++ {
		shrink = append(shrink, 0, byte(i*7))
	}
	for i := 0; i < 140; i++ {
		shrink = append(shrink, 1, byte(i*11))
	}
	f.Add(shrink)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		cfg := DefaultConfig()
		cfg.Seed = int64(data[0]) + 1
		nw, err := New(8+int(data[1]%32), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mirror := mirrorEdges(nw)
		ops := data[2:]
		if len(ops) > 400 {
			ops = ops[:400] // bound trace length so each input stays fast
		}
		for i := 0; i+1 < len(ops); i += 2 {
			applyTraceOp(t, nw, ops[i]&1, ops[i+1])
			if nw.observed {
				t.Fatalf("op %d: the overlay was observed", i/2)
			}
			if err := checkDifferentialState(nw); err != nil {
				t.Fatalf("op %d (%s): %v", i/2, nw.RebuildDebug(), err)
			}
			if err := mirror.matches(nw.RecomputeGraph()); err != nil {
				t.Fatalf("op %d (%s): edge events: %v", i/2, nw.RebuildDebug(), err)
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%s): %v", i/2, nw.RebuildDebug(), err)
			}
		}
	})
}

// applyTraceOp decodes one (op, arg) byte pair into an operation.
// Decoding is deterministic, so every crashing input replays exactly.
func applyTraceOp(t *testing.T, nw *Network, op, arg byte) {
	t.Helper()
	nodes := nw.Nodes()
	pick := func(off int) NodeID { return nodes[(int(arg)+off)%len(nodes)] }
	switch op % 4 {
	case 0: // insert
		if err := nw.Insert(nw.FreshID(), pick(0)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	case 1: // delete
		if err := nw.Delete(pick(0)); err != nil && !errors.Is(err, ErrTooSmall) {
			t.Fatalf("delete %d: %v", pick(0), err)
		}
	case 2: // batch insert, distinct attach points (fan-in constraint)
		k := 1 + int(arg)%5
		specs := make([]InsertSpec, k)
		for j := range specs {
			specs[j] = InsertSpec{ID: nw.FreshID(), Attach: pick(j)}
		}
		if err := nw.InsertBatch(specs); err != nil {
			t.Fatalf("insert batch: %v", err)
		}
	case 3: // batch delete; model-illegal batches are legitimately rejected
		k := 1 + int(arg)%3
		if k > len(nodes)-4 {
			return
		}
		victims := make([]NodeID, 0, k)
		seen := make(map[NodeID]bool, k)
		for j := 0; len(victims) < k && j < len(nodes); j++ {
			v := pick(j * 7)
			if !seen[v] {
				seen[v] = true
				victims = append(victims, v)
			}
		}
		if err := nw.DeleteBatch(victims); err != nil {
			if errors.Is(err, ErrDuplicateID) || errors.Is(err, ErrUnknownNode) {
				t.Fatalf("delete batch %v: %v", victims, err)
			}
			return // connectivity/survivor/size rejection: state untouched
		}
	}
}
