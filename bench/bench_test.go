package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// smallSize shrinks a workload so the whole suite runs in seconds while
// keeping minWindowOps window ops, enough for every percentile to be
// reported, and waves that still inflate and deflate.
func smallSize(w workload) size {
	sz := size{initial: 64, ops: minWindowOps}
	if w.growTo > 0 {
		sz.growTo = 2000
	}
	if w.wave() {
		sz.waveHigh = 512
	}
	return sz
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, bench defines %s at %d", names, w.name, i)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func runSmall(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	r, err := runWorkload(w, smallSize(w), runOpts{seed: 7, traced: traced, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.problems {
		t.Errorf("%s traced=%v: %s", w.name, traced, p)
	}
	if r.failed != 0 || r.attempted < minWindowOps {
		t.Errorf("%s traced=%v: %d of %d ops failed", w.name, traced, r.failed, r.attempted)
	}
	return r
}

func metricNames(r *result) []string { return slices.Sorted(maps.Keys(r.metrics)) }

// TestWorkloadsSmoke runs every workload at small scale, untraced twice
// and traced twice with one seed. Each run must pass its own checks
// (no failed op, invariants, shadow lockstep, the durable mirror and
// reopen) and emit exactly the metrics BENCHMARK.json declares; all
// four must agree on the digest and the counts, and the two traced runs
// on every count-valued per-layer metric.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u1, u2 := runSmall(t, w, false), runSmall(t, w, false)
			t1, t2 := runSmall(t, w, true), runSmall(t, w, true)
			if got := metricNames(u1); !slices.Equal(got, endToEnd) {
				t.Errorf("untraced metrics %v, want %v", got, endToEnd)
			}
			if got := metricNames(t1); !slices.Equal(got, perLayer) {
				t.Errorf("traced metrics %v, want %v", got, perLayer)
			}
			for _, r := range []*result{u2, t1, t2} {
				if r.digest != u1.digest || !maps.Equal(r.counts, u1.counts) {
					t.Errorf("same seed, different outcome:\n%v %v\n%v %v", u1.digest, u1.counts, r.digest, r.counts)
				}
			}
			for name, m := range t1.metrics {
				if isCount(name, m.Unit) && t2.metrics[name] != m {
					t.Errorf("%s: traced runs disagree: %v vs %v", name, m, t2.metrics[name])
				}
			}
		})
	}
}

// isCount reports whether a metric is a deterministic count, or a
// ratio of counts, rather than a timing or a figure the Go runtime
// decides (allocations, GC cycles, tracing overhead).
func isCount(name, unit string) bool {
	switch name {
	case "dex.alloc_bytes_per_op", "dex.allocs_per_op", "dex.gc_cycles", "trace.overhead_x":
		return false
	}
	switch unit {
	case "count", "count/op", "B", "B/op", "ratio":
		return true
	}
	return false
}

// TestCheckFailsOnDivergence makes sure the end-of-run check can fail:
// a generator that believes in a node the network never saw is caught.
func TestCheckFailsOnDivergence(t *testing.T) {
	w := workloads[2]
	sz := smallSize(w)
	sys, err := newSystem(w, sz, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(w, sz, 1)
	g.insert()
	r := &result{metrics: map[string]metric{}}
	check(r, w, sys, g, nil, sys.fa.Totals(), sys.fa.Totals())
	if len(r.problems) == 0 {
		t.Fatal("a missing node passed the check")
	}
}

func TestGeneratorDependsOnSeedOnly(t *testing.T) {
	w := workloads[2]
	sz := smallSize(w)
	a, b := newGen(w, sz, 3), newGen(w, sz, 3)
	waves := 0
	for i := 0; i < 20_000; i++ {
		oa, ob := a.next(), b.next()
		if oa != ob {
			t.Fatalf("op %d: %+v vs %+v", i, oa, ob)
		}
		if n := len(a.live); n < sz.initial || n > sz.waveHigh {
			t.Fatalf("op %d: %d live nodes outside the wave", i, n)
		}
		if a.waveDone() {
			waves++
		}
	}
	if waves == 0 {
		t.Fatal("no wave completed")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.001, 1}} {
		if got, err := percentile(xs, c.q); err != nil || got != c.want {
			t.Errorf("p%g = %d, %v; want %d", 100*c.q, got, err, c.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples was reported")
	}
}

// TestP999NeedsTenThousandSamples pins the "≥10 samples beyond" rule:
// dex.op_p999_us is refused below 10,000 samples.
func TestP999NeedsTenThousandSamples(t *testing.T) {
	xs := make([]int64, 10_000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got, err := percentile(xs, 0.999); err != nil || got != 9990 {
		t.Errorf("p99.9 of 10,000 = %d, %v; want 9990", got, err)
	}
	if _, err := percentile(xs[:9999], 0.999); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99.9 of 9,999 samples: err %v, want errTooFewSamples", err)
	}
	if _, err := percentile(xs[:999], 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 999 samples: err %v, want errTooFewSamples", err)
	}
}

// TestRecorderDoesNotAllocate keeps the benchmark out of
// dex.allocs_per_op: recording into the preallocated buffer is free.
func TestRecorderDoesNotAllocate(t *testing.T) {
	r := newRecorder(4096)
	if a := testing.AllocsPerRun(1000, func() { r.add(42) }); a != 0 {
		t.Fatalf("recorder.add allocates %v times per call", a)
	}
}

func TestEnvStamp(t *testing.T) {
	s := envStamp()
	for _, key := range []string{"gomaxprocs=", "numcpu=", "cpu=", "go=go", "rev="} {
		if !strings.Contains(s, key) {
			t.Errorf("env stamp %q lacks %s", s, key)
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut strings.Builder
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "steady-uniform", "--trace", "2"},
		{"--workload", "steady-uniform", "--trace-out", "x.jsonl"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if strings.Contains(out.String(), "{") {
		t.Errorf("usage errors printed a result: %s", out.String())
	}
}
