package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
)

// span is one timed call; end == 0 means the call did not happen.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// reqSpans are the spans of one request (window op index req). The
// root is the façade call. Its children are the same operation
// replayed on the shadow layers: core, persist.append,
// persist.checkpoint and core.audit. graph.apply, the mirror replaying
// the step's edge diff (durable-full only), is a second root: it is a
// consumer of the façade's output, not work inside the façade call.
type reqSpans struct {
	req                                     int
	del                                     bool
	root, core, appendS, ckpt, audit, apply span
}

// self is the root's self time: its span minus its children's spans.
func (s *reqSpans) self() int64 {
	return s.root.dur() - s.core.dur() - s.appendS.dur() - s.ckpt.dur() - s.audit.dur()
}

type spanRecord struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  *string `json:"parent"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
}

// writeJSONL writes the request's spans, one JSON object per line.
func (s *reqSpans) writeJSONL(w io.Writer) error {
	rootName, coreName := "dex.insert", "core.insert"
	if s.del {
		rootName, coreName = "dex.delete", "core.delete"
	}
	enc := json.NewEncoder(w)
	emit := func(name string, parent *string, sp span) error {
		if sp.end == 0 {
			return nil
		}
		return enc.Encode(spanRecord{Req: s.req, Name: name, Parent: parent, StartNs: sp.start, EndNs: sp.end})
	}
	for _, e := range []struct {
		name   string
		parent *string
		sp     span
	}{
		{rootName, nil, s.root},
		{coreName, &rootName, s.core},
		{"persist.append", &rootName, s.appendS},
		{"persist.checkpoint", &rootName, s.ckpt},
		{"core.audit", &rootName, s.audit},
		{"graph.apply", nil, s.apply},
	} {
		if err := emit(e.name, e.parent, e.sp); err != nil {
			return err
		}
	}
	return nil
}

// shadow replays every operation on layer objects built from their
// public constructors with the façade's configuration: a core engine,
// on durable-full a persist log and the sampled audit, and a mirror
// graph fed by the engine's edge observer (see stopMirror). Same inputs
// and seed give the same steps, which the runner checks after every
// traced op.
type shadow struct {
	eng    *core.Network
	log    *persist.Log
	dir    string
	audit  bool
	rec    persist.OpRecord
	seeds  []uint64
	mirror *graph.Graph
	deltas []graph.EdgeDelta // the current step's diff

	// Lifetime counters; the runner takes window deltas. walBytes counts
	// the WAL bytes rotated away by checkpoints.
	moved, nDeltas, applyNs, walBytes int64
	checkpoints                       int

	// Maxima of Theorem 1's per-step quantities since resetMax.
	maxMsgs, maxRounds, maxTopo int
}

func newShadow(w workload, sz size, seed int64, dir string) (*shadow, error) {
	cfg := core.DefaultConfig()
	cfg.Mode = w.mode
	cfg.Seed = seed
	cfg.HistoryCap = historyCap
	eng, err := core.New(sz.initial, cfg)
	if err != nil {
		return nil, err
	}
	sh := &shadow{eng: eng, dir: dir, mirror: eng.Graph().Clone()}
	eng.SetTransferObserver(func(core.Vertex, core.NodeID, core.NodeID) { sh.moved++ })
	eng.SetEdgeObserver(func(_ int, d []graph.EdgeDelta) { sh.deltas = d })
	if !w.durable {
		return sh, nil
	}
	log, _, err := persist.Open(dir, persist.Options{CheckpointEvery: checkpointEvery, GroupCommit: 1, NoSync: true})
	if err != nil {
		eng.Close()
		return nil, err
	}
	if err := log.Begin(eng); err != nil {
		log.Close()
		eng.Close()
		return nil, err
	}
	eng.SetSeedObserver(func(s uint64) { sh.seeds = append(sh.seeds, s) })
	sh.log, sh.audit = log, true
	return sh, nil
}

// step applies o in the order the façade does (engine, WAL append,
// due checkpoint, audit), then replays the step's diff on the mirror,
// timing each call into sp.
func (sh *shadow) step(o op, sp *reqSpans) error {
	sh.seeds = sh.seeds[:0]
	sh.deltas = nil
	var err error
	sp.core.start = now()
	if o.del {
		err = sh.eng.Delete(o.id)
	} else {
		err = sh.eng.Insert(o.id, o.attach)
	}
	sp.core.end = now()
	if err != nil {
		return fmt.Errorf("shadow core: %w", err)
	}
	st := sh.eng.LastStep()
	sh.maxMsgs = max(sh.maxMsgs, st.Messages)
	sh.maxRounds = max(sh.maxRounds, st.Rounds)
	sh.maxTopo = max(sh.maxTopo, st.TopologyChanges)
	if sh.log != nil {
		sh.rec.Op, sh.rec.ID, sh.rec.Attach = core.OpInsert, o.id, o.attach
		if o.del {
			sh.rec.Op, sh.rec.Attach = core.OpDelete, 0
		}
		sh.rec.Seeds = append(sh.rec.Seeds[:0], sh.seeds...)
		sh.rec.Metrics = st
		sp.appendS.start = now()
		err = sh.log.Append(&sh.rec)
		sp.appendS.end = now()
		if err != nil {
			return fmt.Errorf("shadow append: %w", err)
		}
		if sh.log.CheckpointDue() {
			sh.walBytes += newestFile(sh.dir, "wal-*.log")
			sp.ckpt.start = now()
			err = sh.log.Checkpoint(sh.eng)
			sp.ckpt.end = now()
			if err != nil {
				return fmt.Errorf("shadow checkpoint: %w", err)
			}
			sh.checkpoints++
		}
	}
	if sh.audit {
		sp.audit.start = now()
		err = sh.eng.Audit(core.AuditSampled)
		sp.audit.end = now()
		if err != nil {
			return fmt.Errorf("shadow audit: %w", err)
		}
	}
	if sh.mirror != nil {
		sp.apply.start = now()
		applyDeltas(sh.mirror, sh.deltas)
		sp.apply.end = now()
		sh.applyNs += sp.apply.dur()
		sh.nDeltas += int64(len(sh.deltas))
	}
	return nil
}

// stopMirror detaches the mirror after checking it against the shadow
// overlay. Edge-diff bookkeeping nearly doubles a steady-state core
// op, so past this point the shadow keeps it only where the façade
// pays it too (durable-full, which publishes edge events).
func (sh *shadow) stopMirror() error {
	if !sameGraph(sh.mirror, sh.eng.Graph()) {
		return fmt.Errorf("graph.apply mirror differs from the shadow overlay")
	}
	sh.eng.SetEdgeObserver(nil)
	sh.mirror = nil
	return nil
}

func (sh *shadow) resetMax() { sh.maxMsgs, sh.maxRounds, sh.maxTopo = 0, 0, 0 }

func (sh *shadow) close() {
	if sh.log != nil {
		_ = sh.log.Close() // the shadow's directory is deleted with the run's
	}
	sh.eng.Close()
}
