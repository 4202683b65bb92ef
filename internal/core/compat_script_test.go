package core

import "math/rand"

// The churn script behind the checkpoint-compatibility tests
// (checkpoint_compat_test.go) and the legacy fixture in
// testdata/legacy-pending-seeds, whose gen.sh runs this file against
// an older engine. It must keep compiling against that engine, so it
// uses only long-stable API, and it must never change: the pinned
// hashes and the fixture were both measured on it.

const (
	compatN0   = 32 // initial network size
	compatSeed = 7  // engine seed
	compatWave = 300
)

// compatOp applies op i of the script: waves of compatWave ops that
// alternate between growth (nine inserts per delete) and shrinkage
// (nine deletes per insert), so both rebuild directions run. Each op
// draws from its own source, seeded by i, so a run can resume the
// script at any op. Every op records exactly one step.
func compatOp(nw *Network, i int) error {
	rng := rand.New(rand.NewSource(int64(i)))
	grow := (i/compatWave)%2 == 0
	insert := rng.Intn(10) != 0
	if !grow {
		insert = !insert
	}
	if insert || nw.Size() <= 8 {
		return nw.Insert(nw.FreshID(), nw.SampleNode(rng))
	}
	return nw.Delete(nw.SampleNode(rng))
}
