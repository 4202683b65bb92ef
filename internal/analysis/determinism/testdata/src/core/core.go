// Package core is the determinism fixture: each function isolates one
// way map-iteration order, the wall clock, or the global RNG can leak
// into engine state — and the commutative shapes that must pass
// without annotation.
package core

import (
	"math/rand"
	"sort"
	"time"
)

type metrics struct {
	onEvent func(k int)
}

func clockAbuse() time.Duration {
	t := time.Now()      // want "reads the wall clock"
	return time.Since(t) // want "reads the wall clock"
}

func globalRand() int {
	return rand.Intn(6) // want "process-global source"
}

// seeded is the sanctioned RNG construction.
func seeded() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

func rangeLeaks(m map[int]int, rng *rand.Rand, mx *metrics, emit func(int)) {
	last := 0
	total := 0
	ch := make(chan int, len(m))
	buf := make([]int, len(m))
	i := 0
	for k, v := range m {
		_ = rng.Intn(k + 1) // want "seed stream"
		mx.onEvent(k)       // want "stored callback onEvent"
		emit(v)             // want "stored callback emit"
		last = v            // want "last iteration wins"
		total += v          // commutative integer accumulation: ok
		ch <- k             // want "delivery order"
		buf[i] = k          // want "does not derive from the loop variables"
		i++
	}
	_, _, _ = last, total, buf
}

func firstKey(m map[int]int) int {
	for k := range m {
		return k // want "chosen by map iteration order"
	}
	return -1
}

func badAccumulators(m map[int]float64) (f float64, s string, x int) {
	for _, v := range m {
		f += v   // want "non-integer accumulator"
		s += "x" // want "non-integer accumulator"
		x <<= 1  // want "not commutative"
	}
	return
}

// maxLoad is the guarded-extremum shape: a max fold commutes.
func maxLoad(m map[int]int) int {
	mx := 0
	for _, v := range m {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// minLoad adds the conventional unset sentinel.
func minLoad(m map[int]int) int {
	best := -1
	for _, v := range m {
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

// argmax must stay flagged: on ties, the winning key is picked by
// iteration order even though the max itself is not.
func argmax(m map[int]int) int {
	best, arg := -1, -1
	for k, v := range m {
		if v > best {
			best = v
			arg = k // want "last iteration wins"
		}
	}
	return arg
}

// cappedMax must stay flagged: &&-combined guards do not commute.
func cappedMax(m map[int]int) int {
	mx := 0
	for _, v := range m {
		if mx < 10 && v > mx {
			mx = v // want "last iteration wins"
		}
	}
	return mx
}

// sortedKeys is the collect-then-sort shape: the sort erases the
// iteration order.
func sortedKeys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// unsortedKeys leaks: the slice keeps map order.
func unsortedKeys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want "last iteration wins"
	}
	return out
}

// invert stores per key into another map: order-independent.
func invert(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// keyed stores at loop-derived slice positions: order-independent.
func keyed(m map[int]int, dense []int) {
	for k, v := range m {
		dense[k] = v
	}
}

// allowed shows the escape hatch; the annotated line carries no want.
func allowed(m map[int]int) int {
	pick := -1
	for k := range m {
		//dexvet:allow determinism fixture: any representative key works here
		pick = k
		break
	}
	return pick
}

// store stands in for the engine's per-node store: its methods append
// what they receive.
type store struct {
	runs  [][]int
	dirty []int
}

func (st *store) slot(u int) int { return u }

func (st *store) reset(s int, vs []int) { st.runs = append(st.runs, vs) }

func (st *store) markDirty(u int) { st.dirty = append(st.dirty, u) }

func (st *store) tick() {}

// commitRebuild reconstructs the engine's one-step rebuild commit as it
// once was: no statement of the body stores anything outside the loop,
// yet each method it hands the loop variables to appends in map order
// (the arena layout, the dirty list).
func commitRebuild(st *store, verts map[int][]int) {
	for u, vs := range verts {
		s := st.slot(u) // want "passes the map-range key or value to method slot"
		st.reset(s, vs) // want "passes the map-range key or value to method reset"
		st.markDirty(u) // want "passes the map-range key or value to method markDirty"
		st.tick()       // receives nothing from the loop: ok
		keyed(nil, nil) // a function, not a method: ok
		_ = len(vs) + s
	}
}
