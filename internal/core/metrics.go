package core

// OpKind identifies the adversarial operation that triggered a step.
type OpKind int

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpBatchInsert
	OpBatchDelete
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpBatchInsert:
		return "batch-insert"
	case OpBatchDelete:
		return "batch-delete"
	}
	return "?"
}

// RecoveryKind identifies which recovery path handled the step.
type RecoveryKind int

// Recovery kinds.
const (
	RecoveryType1 RecoveryKind = iota
	RecoveryInflate
	RecoveryDeflate
)

func (k RecoveryKind) String() string {
	switch k {
	case RecoveryInflate:
		return "type2-inflate"
	case RecoveryDeflate:
		return "type2-deflate"
	}
	return "type1"
}

// StepMetrics records the paper's cost measures for one adversarial step
// (Theorem 1's quantities: rounds, messages, topology changes).
type StepMetrics struct {
	Step   int
	Op     OpKind
	Target NodeID

	Rounds          int
	Messages        int
	TopologyChanges int

	Recovery    RecoveryKind
	WalkRetries int
	Floods      int

	// StaggerActive reports whether a staggered rebuild was in flight
	// during the step; StaggerStarted/StaggerFinished flag its endpoints.
	StaggerActive   bool
	StaggerStarted  bool
	StaggerFinished bool

	// Post-step state snapshot.
	N int
	P int64
}

// Totals aggregates step metrics over the network's lifetime in O(1)
// memory, so long runs can cap the per-step history (Config.HistoryCap)
// without losing the headline numbers.
type Totals struct {
	Steps int

	Rounds          int64
	Messages        int64
	TopologyChanges int64

	MaxRounds          int
	MaxMessages        int
	MaxTopologyChanges int

	WalkRetries int64
	Floods      int64

	// InflateEvents / DeflateEvents count steps whose recovery was a
	// type-2 inflation/deflation (one-step rebuilds and staggered rebuild
	// triggers alike). StaggerStarts/StaggerFinishes count the staggered
	// rebuild endpoints.
	InflateEvents   int
	DeflateEvents   int
	StaggerStarts   int
	StaggerFinishes int
}

func (t *Totals) absorb(s StepMetrics) {
	t.Steps++
	t.Rounds += int64(s.Rounds)
	t.Messages += int64(s.Messages)
	t.TopologyChanges += int64(s.TopologyChanges)
	if s.Rounds > t.MaxRounds {
		t.MaxRounds = s.Rounds
	}
	if s.Messages > t.MaxMessages {
		t.MaxMessages = s.Messages
	}
	if s.TopologyChanges > t.MaxTopologyChanges {
		t.MaxTopologyChanges = s.TopologyChanges
	}
	t.WalkRetries += int64(s.WalkRetries)
	t.Floods += int64(s.Floods)
	switch s.Recovery {
	case RecoveryInflate:
		t.InflateEvents++
	case RecoveryDeflate:
		t.DeflateEvents++
	}
	if s.StaggerStarted {
		t.StaggerStarts++
	}
	if s.StaggerFinished {
		t.StaggerFinishes++
	}
}

// Totals returns the lifetime aggregate metrics; unlike History it is
// unaffected by Config.HistoryCap.
func (nw *Network) Totals() Totals { return nw.totals }

func (nw *Network) beginStep(op OpKind, target NodeID) {
	nw.step = StepMetrics{Step: nw.totals.Steps + 1, Op: op, Target: target}
	// Both per-step scratch sets reset in O(1): dirty tracking by a
	// generation bump, the edge log by truncation. The coordinator's
	// cached degree is stamped with a generation, so it goes when the
	// generations wrap.
	nw.st.resetDirty()
	if nw.st.dirtyGen == 1 {
		nw.coord = coordCache{}
	}
	nw.resetEdgeLog()
}

func (nw *Network) endStep() StepMetrics {
	nw.step.N = nw.Size()
	nw.step.P = nw.z.P()
	nw.step.StaggerActive = nw.stag != nil || nw.step.StaggerFinished
	nw.totals.absorb(nw.step)
	nw.appendHistory(nw.step)
	nw.steerView()
	nw.flushEdgeDeltas()
	return nw.step
}

// appendHistory stores the step, dropping the older half when the
// configured cap is reached (amortized O(1) per step).
func (nw *Network) appendHistory(s StepMetrics) {
	if limit := nw.cfg.HistoryCap; limit > 0 && len(nw.history) >= limit {
		keep := limit / 2 // 0 when limit == 1: the append below restores len 1
		n := copy(nw.history, nw.history[len(nw.history)-keep:])
		nw.history = nw.history[:n]
	}
	nw.history = append(nw.history, s)
}

// LastStep returns the metrics of the most recent step.
func (nw *Network) LastStep() StepMetrics {
	if len(nw.history) == 0 {
		return StepMetrics{}
	}
	return nw.history[len(nw.history)-1]
}
