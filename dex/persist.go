package dex

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/persist"
)

// ErrNotPersistent reports a durability method called on a network
// built without WithPersistence.
var ErrNotPersistent = errors.New("dex: network has no persistence directory")

// PersistOption tunes WithPersistence.
type PersistOption func(*persist.Options)

// WithCheckpointEvery sets how many operations elapse between
// automatic checkpoints (default 4096; negative disables automatic
// checkpoints, leaving only explicit Checkpoint calls).
func WithCheckpointEvery(n int) PersistOption {
	return func(o *persist.Options) { o.CheckpointEvery = n }
}

// WithGroupCommit batches n operations per WAL fsync (default 1:
// every operation is durable when its call returns). Larger batches
// amortize fsync cost; the trade is that a crash may lose up to n-1
// trailing operations — recovery then resumes from the last durable
// prefix, never from a corrupt middle.
func WithGroupCommit(n int) PersistOption {
	return func(o *persist.Options) { o.GroupCommit = n }
}

// WithNoSync disables fsync on the WAL and checkpoint paths. State
// still survives process crashes (the OS page cache persists), but
// not machine crashes. For tests and benchmarks.
func WithNoSync(on bool) PersistOption {
	return func(o *persist.Options) { o.NoSync = on }
}

// WithPersistence makes the network durable in directory dir:
// checkpoints plus a write-ahead log of every operation, with crash
// recovery on construction. If dir already holds state, the network
// resumes from it — the remaining options must match the stored
// configuration.
func WithPersistence(dir string, popts ...PersistOption) Option {
	return func(o *options) {
		if dir == "" {
			o.fail("empty persistence directory")
			return
		}
		o.persistDir = dir
		for _, p := range popts {
			p(&o.popt)
		}
	}
}

// newPersistent builds or resumes a durable network (the
// WithPersistence path of newFromOptions).
func newPersistent(o options) (*Network, error) {
	log, eng, err := persist.Open(o.persistDir, o.popt)
	if err != nil {
		return nil, err
	}
	if eng == nil {
		// Fresh directory: build the engine, then anchor the log with
		// its step-0 checkpoint so the directory is resumable from the
		// first moment.
		eng, err = core.New(o.initialSize, o.cfg)
		if err != nil {
			return nil, err
		}
		if err := log.Begin(eng); err != nil {
			log.Close()
			return nil, err
		}
	} else if stored := eng.Config(); stored != o.cfg {
		log.Close()
		return nil, fmt.Errorf("dex: options disagree with the stored configuration (stored %+v, requested %+v)", stored, o.cfg)
	}
	nw := wrapEngine(eng, o)
	nw.log = log
	eng.SetSeedObserver(func(s uint64) { nw.seedBuf = append(nw.seedBuf, s) })
	return nw, nil
}

// beginPersist opens an operation's seed-capture window.
func (nw *Network) beginPersist() {
	if nw.log != nil {
		nw.seedBuf = nw.seedBuf[:0]
	}
}

// commitPersist logs the operation that just succeeded: its
// arguments, the walk seeds it consumed, and the step metrics it
// produced. Runs the automatic checkpoint when one is due. The
// record buffer and seed slice are reused, so steady-state commits
// allocate nothing.
func (nw *Network) commitPersist(op core.OpKind, id, attach NodeID, inserts []InsertSpec, deletes []NodeID) error {
	if nw.log == nil {
		return nil
	}
	nw.rec.Op = op
	nw.rec.ID = id
	nw.rec.Attach = attach
	nw.rec.Inserts = append(nw.rec.Inserts[:0], inserts...)
	nw.rec.Deletes = append(nw.rec.Deletes[:0], deletes...)
	nw.rec.Seeds = append(nw.rec.Seeds[:0], nw.seedBuf...)
	nw.rec.Metrics = nw.eng.LastStep()
	if err := nw.log.Append(&nw.rec); err != nil {
		return fmt.Errorf("dex: persist %s: %w", op, err)
	}
	if nw.log.CheckpointDue() {
		if err := nw.log.Checkpoint(nw.eng); err != nil {
			return fmt.Errorf("dex: checkpoint: %w", err)
		}
	}
	return nil
}

// Checkpoint forces a durable checkpoint of the current state right
// now (one is also taken automatically every WithCheckpointEvery
// operations and on Close-preceding flushes). Returns
// ErrNotPersistent without WithPersistence, and ErrReentrantOp when
// called from an event callback: a checkpoint taken mid-operation
// would snapshot half-applied recovery state into the WAL, exactly the
// hazard the mutator guards exist for. (The automatic cadenced
// checkpoint is unaffected — it runs at commit time, after the
// operation's state is fully applied.)
func (nw *Network) Checkpoint() error {
	if nw.log == nil {
		return ErrNotPersistent
	}
	if err := nw.enterOp(); err != nil {
		return err
	}
	defer nw.exitOp()
	return nw.log.Checkpoint(nw.eng)
}

// LastRoot returns the Merkle Mountain Range root over the entire
// per-step metrics history and the number of steps it covers. The
// root is updated incrementally on every operation and persisted in
// checkpoints, so two replicas that processed the same step sequence
// — even if one of them crash-recovered along the way — report the
// same root. Zero without WithPersistence.
//
//dexvet:allow guarddiscipline Log.Root is a pure read of the in-memory MMR peaks; it moves no WAL state, so reading it from a callback observes the pre-operation root
func (nw *Network) LastRoot() (root [32]byte, steps uint64) {
	if nw.log == nil {
		return root, 0
	}
	return nw.log.Root()
}

// Crash abandons the network the way a process kill would: the
// staged group-commit batch is discarded and the log closed without
// flushing. The directory is left exactly as a real crash leaves it,
// so the crash-recovery tests and fuzzer exercise genuine torn-tail
// recovery. A crashed network must not be used further. No-op
// without WithPersistence.
//
//dexvet:allow guarddiscipline Crash models a hard process kill — tearing whatever is in flight is exactly its contract, so the re-entrancy guard would defeat the simulation
func (nw *Network) Crash() {
	if nw.log != nil {
		nw.log.Crash()
	}
}

// Checkpoint forces a durable checkpoint under the façade lock; see
// (*Network).Checkpoint.
func (c *Concurrent) Checkpoint() error {
	return c.op(func(nw *Network) error { return nw.Checkpoint() })
}

// LastRoot returns the history digest under the façade lock; see
// (*Network).LastRoot.
func (c *Concurrent) LastRoot() (root [32]byte, steps uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.LastRoot()
}
