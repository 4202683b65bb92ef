package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/dex"
	"repro/internal/congest"
)

const (
	// Set-up is repeated and its median reported, so one slow build does
	// not decide setup_s; short set-ups repeat until setupSeconds are
	// spent.
	minSetups    = 3
	setupSeconds = 0.5
	// replayChunk is how many façade ops run before the shadow replays
	// them. Interleaving op by op would make each side run on caches the
	// other just evicted and inflate both sides' spans.
	replayChunk = 512
	// maxSpanReqs bounds how many requests' spans --trace-out keeps.
	maxSpanReqs = 10_000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. problems lists every failed check and
// every refused metric; the run is correct when it is empty.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	raw       map[string]metric // untraced: the end-to-end metrics before dividing by slowdown
	slowdown  float64           // untraced: the host's slowdown (see probe.go)
	counts    map[string]int64  // deterministic counts, the digest's input
	digest    string
	problems  []string
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("%s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setPct sets a nearest-rank percentile of ns samples in µs, or records
// why it is refused.
func (r *result) setPct(name string, sorted []int64, q float64) {
	v, err := percentile(sorted, q)
	if err != nil {
		r.problem("%s: %v", name, err)
		return
	}
	r.set(name, float64(v)/1e3, "us")
}

type runOpts struct {
	seed   int64
	traced bool
	tmp    string    // parent of the run's directories ("" = os.TempDir)
	spans  io.Writer // traced: sampled spans as JSONL (nil = none)
}

// window is the closed loop's record: one latency per successful op, by
// kind, in buffers sized before the loop.
type window struct {
	ins, del recorder
	ret      []int64 // durable-full traced: when window op i returned
	ops      int
	inserts  int
	failed   int
	firstErr error
}

// run issues n operations, then (toWaveEnd) more until the current wave
// ends. hook, if set, runs after each successful op, outside its timing;
// so does the probe, if set.
func (wn *window) run(sys *system, g *gen, n int, toWaveEnd bool, hp *probe, hook func(i int, o op, t0, t1 int64)) {
	for i := 0; i < n || (toWaveEnd && !g.waveDone()); i++ {
		o := g.next()
		t0 := now()
		err := sys.apply(o)
		t1 := now()
		idx := wn.ops
		wn.ops++
		if !o.del {
			wn.inserts++
		}
		if err != nil {
			wn.failed++
			if wn.firstErr == nil {
				wn.firstErr = fmt.Errorf("op %d %+v: %w", idx, o, err)
			}
			continue
		}
		if o.del {
			wn.del.add(t1 - t0)
		} else {
			wn.ins.add(t1 - t0)
		}
		if idx < len(wn.ret) {
			wn.ret[idx] = t1
		}
		if hook != nil {
			hook(idx, o, t0, t1)
		}
		hp.tick(t1)
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// setUp builds the workload's network minSetups or more times and
// returns the last one with its generator, and the set-up times in
// seconds, probe runs excluded.
func setUp(w workload, sz size, seed int64, dir string, recv []int64, hp *probe) (*system, *gen, []float64, error) {
	var times []float64
	spent := 0.0
	for rep := 0; ; rep++ {
		runtime.GC()
		t, probed := now(), hp.spent
		g := newGen(w, sz, seed)
		sys, err := newSystem(w, sz, seed, filepath.Join(dir, fmt.Sprintf("setup-%d", rep)), recv)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		err = g.setUp(sz.growTo, func(o op) error {
			err := sys.apply(o)
			hp.tick(now())
			return err
		})
		if err != nil {
			sys.discard()
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := seconds(now() - t - (hp.spent - probed))
		times = append(times, d)
		spent += d
		if len(times) >= minSetups && spent >= setupSeconds {
			return sys, g, times, nil
		}
		sys.discard()
	}
}

// runWorkload sets up, runs and checks one workload. Untraced, the
// whole window is timed and the end-to-end metrics reported. Traced,
// the first half of the window runs untraced (for the allocation and GC
// metrics and the tracing overhead) and the second half is replayed on
// shadow layers (for the per-layer metrics). Both modes issue the same
// operations and end in the same state.
func runWorkload(w workload, sz size, ro runOpts) (*result, error) {
	dir, err := os.MkdirTemp(ro.tmp, "dexbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &result{metrics: map[string]metric{}}

	capOps := sz.ops
	if w.wave() {
		capOps += 8 * (sz.waveHigh - sz.initial) // slack to finish the last wave
	}
	var recv []int64
	if ro.traced && w.durable {
		recv = make([]int64, capOps)
	}
	hp := newProbe()
	sys, g, setups, err := setUp(w, sz, ro.seed, dir, recv, hp)
	if err != nil {
		return nil, err
	}
	defer sys.fa.Close() // idempotent; durable-full closes earlier to reopen

	perKind := capOps/2 + capOps/20 + 1024
	wn := &window{ins: newRecorder(perKind), del: newRecorder(perKind)}
	if recv != nil {
		wn.ret = make([]int64, capOps)
	}
	nA := sz.ops
	if ro.traced {
		nA = sz.ops / 2
	}
	before := sys.fa.Totals()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if ro.traced {
		hp = nil // traced runs report measured times
	}
	tA, probed := now(), int64(0)
	if hp != nil {
		probed = hp.spent
	}
	wn.run(sys, g, nA, !ro.traced && w.wave(), hp, nil)
	secA := seconds(now() - tA)
	if hp != nil {
		secA -= seconds(hp.spent - probed)
	}
	runtime.ReadMemStats(&m1)
	// A traced run takes the façade's tail (dex.op_p999_us) from its
	// untraced half: in the traced half, every shadow replay leaves the
	// next façade call on cold caches.
	var tail recorder
	if ro.traced {
		tail.ns = append(slices.Clone(wn.ins.ns), wn.del.ns...)
	}

	var th *tracedHalf
	if ro.traced {
		if th, err = runTracedHalf(w, sz, ro, filepath.Join(dir, "shadow"), sys, g, wn, capOps); err != nil {
			return nil, err
		}
		defer th.sh.close()
		for _, e := range th.errs {
			r.problem("shadow: %s", e)
		}
	}
	r.attempted, r.failed = wn.ops, wn.failed
	if wn.failed > 0 {
		r.problem("%d of %d operations failed; first: %v", wn.failed, wn.ops, wn.firstErr)
	}
	after := sys.fa.Totals()

	if !ro.traced {
		raw := &result{metrics: map[string]metric{}}
		raw.set("setup_s", medianFloat(setups), "s")
		windowTimings(raw, wn.ins.ns, wn.del.ns, wn.ops, secA)
		r.problems = append(r.problems, raw.problems...)
		r.raw, r.slowdown = raw.metrics, hp.slowdown()
		for name, m := range raw.metrics {
			if name == "ops_per_s" {
				m.Value *= r.slowdown
			} else {
				m.Value /= r.slowdown
			}
			r.set(name, m.Value, m.Unit)
		}
		// Drop the benchmark's own buffers before reading the live heap.
		wn.ins, wn.del, hp.ring = recorder{}, recorder{}, nil
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.set("heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
	}

	check(r, w, sys, g, th, before, after)
	if ro.traced {
		layerMetrics(r, w, sys, g, wn, th, before, after, &m0, &m1, secA, ro.seed)
		r.setPct("dex.op_p999_us", tail.sorted(), 0.999)
		if ro.spans != nil {
			for i := range th.tr.kept {
				if err := th.tr.kept[i].writeJSONL(ro.spans); err != nil {
					return nil, fmt.Errorf("write spans: %w", err)
				}
			}
		}
	}
	if w.durable {
		r.counts["persist.checkpoint_bytes"] = newestFile(sys.dir, "checkpoint-*.ckpt")
		reopenTook, err := sys.reopen() // closes the façade, draining its events
		if err != nil {
			r.problem("reopen: %v", err)
		}
		if !sameGraph(sys.sub.mirror, sys.c.Graph()) {
			r.problem("subscriber mirror differs from the overlay")
		}
		r.counts["dex.events"] = sys.sub.events
		if ro.traced {
			r.set("persist.reopen_s", reopenTook.Seconds(), "s")
			r.set("persist.checkpoint_bytes", float64(r.counts["persist.checkpoint_bytes"]), "B")
			r.set("dex.events_per_op", float64(sys.sub.events)/float64(wn.ops), "count/op")
			var lag recorder
			for i, t := range wn.ret[:wn.ops] {
				if t != 0 && recv[i] != 0 {
					lag.add(recv[i] - t)
				}
			}
			r.setPct("dex.event_lag_us_p99", lag.sorted(), 0.99)
		}
	}
	r.digest = digest(after, r.counts)
	return r, nil
}

// windowTimings sets the window's timing metrics from its latency
// samples, which it sorts, and its duration.
func windowTimings(r *result, ins, del []int64, ops int, secs float64) {
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	sort.Slice(del, func(i, j int) bool { return del[i] < del[j] })
	r.set("ops_per_s", float64(ops)/secs, "ops/s")
	r.setPct("insert_p50_us", ins, 0.5)
	r.setPct("insert_p99_us", ins, 0.99)
	r.setPct("delete_p50_us", del, 0.5)
	r.setPct("delete_p99_us", del, 0.99)
}

// check verifies the final state and records the counts both modes
// share: the network matches the generator's live set and passes the
// full invariant check, and (traced) the shadow agrees with the façade.
func check(r *result, w workload, sys *system, g *gen, th *tracedHalf, before, after dex.Totals) {
	r.counts = map[string]int64{
		"ops":                     int64(r.attempted),
		"n":                       int64(sys.fa.Size()),
		"p":                       sys.fa.P(),
		"window.messages":         after.Messages - before.Messages,
		"window.rounds":           after.Rounds - before.Rounds,
		"window.topology_changes": after.TopologyChanges - before.TopologyChanges,
		"window.walk_retries":     after.WalkRetries - before.WalkRetries,
		"window.floods":           after.Floods - before.Floods,
		"window.inflations":       int64(after.InflateEvents - before.InflateEvents),
		"window.deflations":       int64(after.DeflateEvents - before.DeflateEvents),
		"window.stagger_starts":   int64(after.StaggerStarts - before.StaggerStarts),
		"window.stagger_finishes": int64(after.StaggerFinishes - before.StaggerFinishes),
	}
	if got, want := sys.fa.Size(), len(g.live); got != want {
		r.problem("network has %d nodes, generator %d", got, want)
	}
	sys.withGraph(func(gr *dex.Graph) {
		for _, id := range g.live {
			if !gr.HasNode(id) {
				r.problem("live node %d missing from the overlay", id)
				break
			}
		}
		st := gr.Stats()
		r.counts["graph.live_cells"] = int64(st.LiveCells)
		r.counts["graph.pool_cells"] = int64(st.PoolLen)
		if th != nil && !sameGraph(th.sh.eng.Graph(), gr) {
			r.problem("shadow overlay differs from the façade's")
		}
	})
	if err := sys.fa.CheckInvariants(); err != nil {
		r.problem("invariants: %v", err)
	}
	if th == nil {
		return
	}
	if a := th.sh.eng.Totals(); a != after {
		r.problem("shadow totals %+v, façade %+v", a, after)
	}
	if w.durable {
		if !sameGraph(th.sh.mirror, th.sh.eng.Graph()) {
			r.problem("graph.apply mirror differs from the shadow overlay")
		}
		a, _ := th.sh.log.Root()
		if b, _ := sys.c.LastRoot(); a != b {
			r.problem("shadow history root %x, façade %x", a, b)
		}
	}
}

// tracedHalf is the traced second half of a window: the shadow, the
// aggregated spans, and the half's own throughput.
type tracedHalf struct {
	sh       *shadow
	tr       tracer
	mark     shadowMark
	opsA     int // ops of the untraced first half
	ops      int
	secs     float64
	deltas   int64   // edge deltas the mirror applied during the catch-up
	applyNs  int64   // and the time it took
	floodUs  float64 // congest.flood_us, or -1 when not measured
	floodErr error
	errs     []string // shadow divergences; only the first few
}

func (th *tracedHalf) fail(format string, args ...any) {
	if len(th.errs) < 3 {
		th.errs = append(th.errs, fmt.Sprintf(format, args...))
	}
}

// runTracedHalf builds the shadow, brings it to the façade's state by
// regenerating the same operation stream (the generator depends on the
// seed alone), and runs the rest of the window, replaying every op on
// the shadow and checking that both produce the same step.
func runTracedHalf(w workload, sz size, ro runOpts, dir string, sys *system, g *gen, wn *window, capOps int) (*tracedHalf, error) {
	sh, err := newShadow(w, sz, ro.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("shadow: %w", err)
	}
	th := &tracedHalf{sh: sh, opsA: wn.ops, floodUs: -1}
	gs := newGen(w, sz, ro.seed)
	var scratch reqSpans
	if err := gs.setUp(sz.growTo, func(o op) error { return sh.step(o, &scratch) }); err != nil {
		sh.close()
		return nil, fmt.Errorf("shadow set-up: %w", err)
	}
	th.mark = sh.mark()
	for i := 0; i < th.opsA; i++ {
		if err := sh.step(gs.next(), &scratch); err != nil {
			sh.close()
			return nil, fmt.Errorf("shadow catch-up: %w", err)
		}
	}
	if gs.nextID != g.nextID || len(gs.live) != len(g.live) {
		th.fail("shadow generator out of step with the façade's")
	}
	// The graph metrics come from the catch-up, which replays the first
	// half's ops with the edge observer on.
	th.deltas, th.applyNs = sh.nDeltas-th.mark.deltas, sh.applyNs-th.mark.applyNs
	if !w.durable {
		if err := sh.stopMirror(); err != nil {
			th.fail("%v", err)
		}
	}

	n := sz.ops - th.opsA
	perKind := capOps/2 + capOps/20 + 1024
	th.tr = tracer{coreIns: newRecorder(perKind), coreDel: newRecorder(perKind), self: newRecorder(capOps)}
	if w.durable {
		th.tr.appendS, th.tr.audit = newRecorder(capOps), newRecorder(capOps)
	}
	if ro.spans != nil {
		th.tr.stride = max(1, n/maxSpanReqs)
	}
	type pending struct {
		o    op
		req  int
		root span
		step dex.StepMetrics
	}
	buf := make([]pending, 0, replayChunk)
	replay := func() {
		for _, p := range buf {
			sp := reqSpans{req: p.req, del: p.o.del, root: p.root}
			if err := sh.step(p.o, &sp); err != nil {
				th.fail("op %d: %v", p.req, err)
				continue
			}
			if st := sh.eng.LastStep(); st != p.step {
				th.fail("op %d: shadow step %+v, façade step %+v", p.req, st, p.step)
			}
			th.tr.add(&sp)
		}
		buf = buf[:0]
	}
	t := now()
	wn.run(sys, g, n, w.wave(), nil, func(i int, o op, t0, t1 int64) {
		buf = append(buf, pending{o: o, req: i, root: span{t0, t1}, step: sys.fa.LastStep()})
		if len(buf) == replayChunk {
			replay()
		}
		// Time the size-count flood on the largest overlay a wave reaches.
		if w.wave() && th.floodUs < 0 && !g.growing {
			sys.withGraph(func(gr *dex.Graph) { th.floodUs, th.floodErr = floodUs(gr, g.live[0]) })
		}
	})
	replay()
	th.secs = seconds(now() - t)
	th.ops = wn.ops - th.opsA
	return th, nil
}

// tracer aggregates the traced requests: per-layer span samples, the
// façade's self time, and every stride-th request's spans for
// --trace-out.
type tracer struct {
	coreIns, coreDel, appendS, audit, self recorder
	ckpt                                   []int64
	stride                                 int
	kept                                   []reqSpans
}

func (t *tracer) add(s *reqSpans) {
	if s.del {
		t.coreDel.add(s.core.dur())
	} else {
		t.coreIns.add(s.core.dur())
	}
	if s.appendS.end != 0 {
		t.appendS.add(s.appendS.dur())
	}
	if s.ckpt.end != 0 {
		t.ckpt = append(t.ckpt, s.ckpt.dur())
	}
	if s.audit.end != 0 {
		t.audit.add(s.audit.dur())
	}
	t.self.add(s.self())
	if t.stride > 0 && s.req%t.stride == 0 {
		t.kept = append(t.kept, *s)
	}
}

// shadowMark holds the shadow's lifetime counters at the window start.
type shadowMark struct {
	moved, deltas, applyNs, walBytes, walOpen int64
	checkpoints, fastInserts                  int
}

func (sh *shadow) mark() shadowMark {
	sh.resetMax()
	m := shadowMark{moved: sh.moved, deltas: sh.nDeltas, applyNs: sh.applyNs, walBytes: sh.walBytes,
		checkpoints: sh.checkpoints, fastInserts: sh.eng.FastInserts()}
	if sh.log != nil {
		m.walOpen = newestFile(sh.dir, "wal-*.log")
	}
	return m
}

// layerMetrics sets the traced run's per-layer metrics. Counts cover
// the whole window; span timings cover the traced half; allocation and
// GC figures cover the untraced half.
func layerMetrics(r *result, w workload, sys *system, g *gen, wn *window, th *tracedHalf,
	before, after dex.Totals, m0, m1 *runtime.MemStats, secA float64, seed int64) {
	sh, tr, sw := th.sh, &th.tr, th.mark
	ops := float64(wn.ops)
	perOp := func(name string, v int64) { r.set(name, float64(v)/ops, "count/op") }
	count := func(name string, v int64) { r.set(name, float64(v), "count") }

	r.setPct("core.insert_us_p50", tr.coreIns.sorted(), 0.5)
	r.setPct("core.insert_us_p99", tr.coreIns.sorted(), 0.99)
	r.setPct("core.delete_us_p50", tr.coreDel.sorted(), 0.5)
	r.setPct("core.delete_us_p99", tr.coreDel.sorted(), 0.99)
	r.set("core.fast_insert_share", float64(sh.eng.FastInserts()-sw.fastInserts)/float64(max(1, wn.inserts)), "ratio")
	perOp("core.vertices_moved_per_op", sh.moved-sw.moved)
	perOp("core.msgs_per_op", after.Messages-before.Messages)
	count("core.msgs_max", int64(sh.maxMsgs))
	perOp("core.rounds_per_op", after.Rounds-before.Rounds)
	count("core.rounds_max", int64(sh.maxRounds))
	perOp("core.topo_per_op", after.TopologyChanges-before.TopologyChanges)
	count("core.topo_max", int64(sh.maxTopo))
	perOp("core.walk_retries_per_op", after.WalkRetries-before.WalkRetries)
	floods := after.Floods - before.Floods
	perOp("core.floods_per_op", floods)
	useful := 0.0
	if floods > 0 {
		useful = float64(after.InflateEvents-before.InflateEvents+after.DeflateEvents-before.DeflateEvents) / float64(floods)
	}
	r.set("core.flood_useful_ratio", useful, "ratio")
	count("core.inflations", int64(after.InflateEvents-before.InflateEvents))
	count("core.deflations", int64(after.DeflateEvents-before.DeflateEvents))
	count("core.stagger_finishes", int64(after.StaggerFinishes-before.StaggerFinishes))

	if th.floodUs < 0 {
		sys.withGraph(func(gr *dex.Graph) { th.floodUs, th.floodErr = floodUs(gr, g.live[0]) })
	}
	if th.floodErr != nil {
		r.problem("congest: %v", th.floodErr)
	}
	r.set("congest.flood_us", th.floodUs, "us")

	r.set("graph.edge_deltas_per_op", float64(th.deltas)/float64(th.opsA), "count/op")
	applyNs := 0.0
	if th.deltas > 0 {
		applyNs = float64(th.applyNs) / float64(th.deltas)
	}
	r.set("graph.apply_ns_per_delta", applyNs, "ns")
	sys.withGraph(func(gr *dex.Graph) {
		st := gr.Stats()
		r.set("graph.live_cells", float64(st.LiveCells), "count")
		r.set("graph.pool_cells", float64(st.PoolLen), "count")
		r.set("graph.pool_per_live", float64(st.PoolLen)/float64(max(1, st.LiveCells)), "ratio")
		r.set("graph.walk_hop_ns", walkHopNs(gr, g.live[0], seed), "ns")
	})

	if w.durable {
		r.setPct("core.audit_us_p50", tr.audit.sorted(), 0.5)
		r.setPct("persist.append_us_p50", tr.appendS.sorted(), 0.5)
		r.setPct("persist.append_us_p99", tr.appendS.sorted(), 0.99)
		r.set("persist.checkpoint_ms_mean", mean(tr.ckpt)/1e6, "ms")
		count("persist.checkpoints", int64(sh.checkpoints-sw.checkpoints))
		wal := sh.walBytes - sw.walBytes + newestFile(sh.dir, "wal-*.log") - sw.walOpen
		r.set("persist.wal_bytes_per_op", float64(wal)/ops, "B/op")
		// reopen_s, checkpoint_bytes and the event metrics are set after
		// the façade is closed.
	} else {
		for _, name := range []string{"core.audit_us_p50", "persist.append_us_p50", "persist.append_us_p99", "dex.event_lag_us_p99"} {
			r.set(name, 0, "us")
		}
		r.set("persist.checkpoint_ms_mean", 0, "ms")
		count("persist.checkpoints", 0)
		r.set("persist.wal_bytes_per_op", 0, "B/op")
		r.set("persist.checkpoint_bytes", 0, "B")
		r.set("persist.reopen_s", 0, "s")
		r.set("dex.events_per_op", 0, "count/op")
	}

	r.setPct("dex.self_us_p50", tr.self.sorted(), 0.5)
	opsA := float64(th.opsA)
	r.set("dex.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/opsA, "B/op")
	r.set("dex.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/opsA, "count/op")
	count("dex.gc_cycles", int64(m1.NumGC-m0.NumGC))
	r.set("dex.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")

	untraced, traced := opsA/secA, float64(th.ops)/th.secs
	r.set("trace.ops_per_s", traced, "ops/s")
	r.set("trace.overhead_x", untraced/traced, "ratio")
}

// walkHopNs times RandomNeighborStepAt, the walk primitive of type-1
// recovery, on the final overlay: the median ns per hop of five walks.
func walkHopNs(g *dex.Graph, start dex.NodeID, seed int64) float64 {
	const hops = 1 << 18
	s, ok := g.SlotOf(start)
	if !ok {
		return 0
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 | 1
	var sink dex.NodeID
	var per []float64
	for rep := 0; rep < 5; rep++ {
		t := now()
		for i := 0; i < hops; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v, next, ok := g.RandomNeighborStepAt(s, -1, x)
			if !ok {
				break
			}
			sink += v
			s = next
		}
		per = append(per, float64(now()-t)/hops)
	}
	hopSink = sink
	return medianFloat(per)
}

// hopSink keeps walkHopNs's loop from being optimized away.
var hopSink dex.NodeID

// floodUs times congest.FloodAggregate, the size count behind every
// Simplified type-2 check, on g: the median µs of three floods, or one
// flood on overlays above 10^4 nodes, where a flood takes most of a
// second and allocates ~300 MB.
func floodUs(g *dex.Graph, initiator dex.NodeID) (float64, error) {
	reps := 3
	if g.NumNodes() > 10_000 {
		reps = 1
	}
	var per []float64
	for rep := 0; rep < reps; rep++ {
		t := now()
		res := congest.FloodAggregate(g, initiator, func(dex.NodeID) int64 { return 1 })
		per = append(per, float64(now()-t)/1e3)
		if res.Count != int64(g.NumNodes()) {
			return 0, fmt.Errorf("flood counted %d of %d nodes", res.Count, g.NumNodes())
		}
	}
	return medianFloat(per), nil
}

// digest hashes the final totals and the shared counts. The same seed
// and op budget give the same digest, traced or not.
func digest(t dex.Totals, counts map[string]int64) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", t)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, counts[k])
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(b.String())))
}
