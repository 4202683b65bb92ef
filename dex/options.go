package dex

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/persist"
)

// Mode selects how type-2 recovery is performed.
type Mode = core.RecoveryMode

const (
	// Simplified rebuilds the whole virtual graph in a single step
	// (Algorithms 4.5/4.6): the amortized bounds of Corollary 1.
	Simplified = core.Simplified
	// Staggered spreads rebuilds over Theta(n) steps via the coordinator
	// (Algorithms 4.7-4.9): the worst-case bounds of Theorem 1. This is
	// the default.
	Staggered = core.Staggered
)

// AuditMode selects how much invariant checking runs after each
// mutating operation (see WithAuditMode).
type AuditMode = core.AuditMode

const (
	// AuditOff performs no per-operation checking (the default).
	AuditOff = core.AuditOff
	// AuditSampled verifies node-local invariants for the nodes the
	// operation touched plus a small random sample: O(zeta) per checked
	// node, independent of network size, so it can stay on for
	// million-node runs.
	AuditSampled = core.AuditSampled
	// AuditFull runs the exhaustive O(n + p) invariant check after every
	// operation.
	AuditFull = core.AuditFull
)

// options collects the configuration assembled by Option values.
type options struct {
	initialSize int
	cfg         core.Config
	audit       AuditMode
	edgeEvents  bool
	asyncBuf    int // WithAsyncEvents buffer; -1 = sync (NewConcurrent only)
	persistDir  string
	popt        persist.Options
	err         error
}

func defaultOptions() options {
	return options{initialSize: 64, cfg: core.DefaultConfig(), asyncBuf: -1}
}

// Option configures a Network under construction; pass them to New.
type Option func(*options)

// fail records the first option error; New reports it instead of
// constructing.
func (o *options) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("dex: "+format, args...)
	}
}

// WithInitialSize sets the initial node count n0 (>= 4; default 64).
// Nodes receive ids 0..n0-1.
func WithInitialSize(n0 int) Option {
	return func(o *options) {
		if n0 < 4 {
			o.fail("initial size %d < 4", n0)
			return
		}
		o.initialSize = n0
	}
}

// WithMode selects Simplified or Staggered type-2 recovery (default
// Staggered).
func WithMode(m Mode) Option {
	return func(o *options) {
		if m != Simplified && m != Staggered {
			o.fail("unknown recovery mode %d", int(m))
			return
		}
		o.cfg.Mode = m
	}
}

// WithZeta sets the maximum cloud size zeta of the p-cycle construction
// (>= 2; the paper fixes zeta <= 8, the default). Exposed for ablations.
func WithZeta(zeta int) Option {
	return func(o *options) {
		if zeta < 2 {
			o.fail("zeta %d < 2", zeta)
			return
		}
		o.cfg.Zeta = zeta
	}
}

// WithTheta sets the rebuilding parameter theta in (0, 1/16]. The
// paper's proofs need theta <= 1/(68*zeta+1); the default 1/64 keeps
// staggering phases short while all invariants hold empirically, and
// the AB-THETA ablation validates the range up to 1/16. Larger values
// delay rebuilds long enough to breach the Lemma 9 load bound, so they
// are rejected.
func WithTheta(theta float64) Option {
	return func(o *options) {
		if theta <= 0 || theta > 1.0/16 {
			o.fail("theta %v outside (0, 1/16]", theta)
			return
		}
		o.cfg.Theta = theta
	}
}

// WithWalkFactor sets c in the type-1 walk length c*ceil(log2 n)
// (>= 1; default 4). Exposed for ablations.
func WithWalkFactor(c int) Option {
	return func(o *options) {
		if c < 1 {
			o.fail("walk factor %d < 1", c)
			return
		}
		o.cfg.WalkFactor = c
	}
}

// WithSeed seeds the network's deterministic random source (default 1).
// Two networks built with equal options and driven by the same
// operation sequence behave identically.
func WithSeed(seed int64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithAuditMode selects the per-operation invariant-checking tier:
// AuditOff (default), AuditSampled (incremental: the operation's dirty
// nodes plus a random sample, o(n) per operation), or AuditFull
// (exhaustive). Violations surface as errors from the mutating call.
func WithAuditMode(m AuditMode) Option {
	return func(o *options) {
		if m != AuditOff && m != AuditSampled && m != AuditFull {
			o.fail("unknown audit mode %d", int(m))
			return
		}
		o.audit = m
	}
}

// WithAsyncEvents moves event delivery onto a dedicated dispatcher
// goroutine with the given initial queue capacity (>= 0): mutating
// operations enqueue events in publish order and return without
// running subscriber callbacks, the dispatcher drains the queue in
// order, and Close flushes whatever is still buffered before
// returning. Callbacks may therefore freely call back into the façade
// — the deadlock and re-entrancy hazards of synchronous delivery do
// not apply. The queue grows past its initial capacity rather than
// blocking publishers (a bounded queue would deadlock the moment it
// filled while a dispatcher callback held the façade lock), so a
// subscriber that cannot keep up costs memory, never loss or
// deadlock. Only meaningful for NewConcurrent; New rejects it.
func WithAsyncEvents(buffer int) Option {
	return func(o *options) {
		if buffer < 0 {
			o.fail("async event buffer %d < 0", buffer)
			return
		}
		o.asyncBuf = buffer
	}
}

// WithEdgeEvents enables per-step EdgesChanged events: after every
// mutating operation the net overlay edge changes are published as one
// batched, deterministically ordered diff. Subscribers can mirror the
// overlay without rescanning it — a type-2 rebuild shows up as exactly
// the edges that changed, not a wholesale graph swap. Off by default
// (the diff costs one log entry per raw edge mutation, sorted and netted
// per node pair when the step ends).
func WithEdgeEvents(on bool) Option {
	return func(o *options) { o.edgeEvents = on }
}

// WithHistoryCap bounds the in-memory per-step metrics history kept by
// History (0, the default, keeps every step). When the cap is reached
// the older half is discarded; Totals still reports exact lifetime
// aggregates. Long-running million-step churn uses this to hold O(cap)
// metrics memory.
func WithHistoryCap(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.fail("history cap %d < 0", n)
			return
		}
		o.cfg.HistoryCap = n
	}
}
