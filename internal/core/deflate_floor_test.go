package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pcycle"
)

// The seed implementation panicked whenever a small-zeta network
// deep-crashed — "unresolved contenders at end of phase 1" (staggered)
// or "no donor for contender" (simplified): with zeta <= 3 the
// deflation trigger |Low| < 3*theta*n fires while n is still far above
// pOld/8, so the rebuild targeted a cycle with pNew < n — a mapping
// that cannot be surjective, making the forced contender resolution
// structurally infeasible. deflationFor now floors the new prime at
// the node count (plus insert slack for staggered flights) and skips
// the rebuild entirely when no admissible prime exists.
//
// At zeta = 3 the fixed engine keeps every paper invariant through the
// whole crash. zeta = 2 sits below the regime where the paper's
// constants compose (4*zeta = 8 leaves no adoption headroom, so
// stacked adoptions overshoot any constant envelope while deflation is
// infeasible), so its gate is relaxed: no panic, the contraction/graph
// structure stays exact, connectivity and surjectivity hold, and the
// cycle still deflates once an admissible prime exists.

// deepCrash grows nw and then deletes down to the 8-node floor, the
// trace that reproduced the seed panic on every tested seed.
func deepCrash(t *testing.T, nw *Network, seed int64, check func(*Network) error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
		nodes := nw.Nodes()
		if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	for nw.Size() > 8 {
		nodes := nw.Nodes()
		if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
		if step%50 == 0 {
			if err := check(nw); err != nil {
				t.Fatalf("crash step %d (n=%d p=%d, %s): %v", step, nw.Size(), nw.P(), nw.RebuildDebug(), err)
			}
		}
		step++
	}
}

// relaxedCrashCheck is the zeta=2 gate: structural exactness without
// the 4*zeta steady-state load bound (see the file comment).
func relaxedCrashCheck(nw *Network) error {
	if err := nw.Graph().Validate(); err != nil {
		return err
	}
	if err := graphsEqual(nw.real, nw.expectedRealGraph()); err != nil {
		return fmt.Errorf("contraction diverged: %w", err)
	}
	if !nw.Graph().Connected() {
		return fmt.Errorf("overlay disconnected at n=%d", nw.Size())
	}
	for _, e := range nw.st.nodeList {
		if nw.st.loadOf(e.id) < 1 {
			return fmt.Errorf("node %d simulates nothing", e.id)
		}
	}
	return nil
}

func crashCheckFor(zeta int) func(*Network) error {
	if zeta >= 3 {
		return (*Network).CheckInvariants
	}
	return relaxedCrashCheck
}

// TestDeflationFloorSurvivesDeepCrash is the regression gate for the
// documented zeta<=3 corner: the full grow-then-crash trace must run
// panic-free with every invariant intact, and the cycle must actually
// deflate along the way (the floor must not simply disable type-2
// shrink recovery).
func TestDeflationFloorSurvivesDeepCrash(t *testing.T) {
	for _, zeta := range []int{2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("zeta=%d/seed=%d", zeta, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Zeta = zeta
				cfg.Seed = seed
				nw := mustNew(t, 64, cfg)
				pPeak := nw.P()
				obs := 0
				nw.SetRebuildObserver(func(pNew int64) {
					if pNew < pPeak {
						obs++
					}
					if p := nw.P(); p > pPeak {
						pPeak = p
					}
				})
				deepCrash(t, nw, seed, crashCheckFor(zeta))
				// Drain any in-flight rebuild so the final state is steady.
				rng := rand.New(rand.NewSource(seed * 7))
				for i := 0; i < 50000; i++ {
					if active, _ := nw.Rebuilding(); !active {
						break
					}
					nodes := nw.Nodes()
					if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
						t.Fatal(err)
					}
				}
				if err := crashCheckFor(zeta)(nw); err != nil {
					t.Fatal(err)
				}
				if nw.P() >= pPeak {
					t.Fatalf("deep crash never deflated: p stayed at %d (peak %d)", nw.P(), pPeak)
				}
				if obs == 0 {
					t.Fatal("no shrinking rebuild observed during the crash")
				}
			})
		}
	}
}

// TestDeflationFloorSimplifiedMode runs the same deep crash in
// simplified mode, where the one-step deflation used to hit the same
// infeasibility through fallbackAssign.
func TestDeflationFloorSimplifiedMode(t *testing.T) {
	for _, zeta := range []int{2, 3} {
		cfg := DefaultConfig()
		cfg.Zeta = zeta
		cfg.Mode = Simplified
		cfg.Seed = int64(zeta)
		nw := mustNew(t, 64, cfg)
		deepCrash(t, nw, int64(zeta), crashCheckFor(zeta))
		if err := crashCheckFor(zeta)(nw); err != nil {
			t.Fatalf("zeta=%d: %v", zeta, err)
		}
	}
}

// TestNewDeflationFloorSelection pins the floor semantics: unfloored
// choice unchanged, binding floors honored, infeasible floors refused.
func TestNewDeflationFloorSelection(t *testing.T) {
	base, err := pcycle.NewDeflation(1031)
	if err != nil {
		t.Fatal(err)
	}
	free, err := pcycle.NewDeflationFloor(1031, 0)
	if err != nil || free.PNew != base.PNew {
		t.Fatalf("floor 0 changed the choice: %v vs %v (%v)", free.PNew, base.PNew, err)
	}
	bound, err := pcycle.NewDeflationFloor(1031, 200)
	if err != nil {
		t.Fatal(err)
	}
	if bound.PNew < 200 || bound.PNew >= 1031/4 {
		t.Fatalf("floored prime %d outside [200, %d)", bound.PNew, 1031/4)
	}
	if _, err := pcycle.NewDeflationFloor(1031, 300); err == nil {
		t.Fatal("accepted a floor above pOld/4")
	}
}
