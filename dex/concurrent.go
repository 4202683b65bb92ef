package dex

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Concurrent is a thread-safe façade over a Network: every method is
// safe for use from any number of goroutines. Operations and engine
// reads serialize on one mutex; Graph accessors return point-in-time
// snapshots instead of live structure, so readers never observe the
// engine mid-mutation.
//
// Event delivery comes in two flavors:
//
//   - synchronous (default): subscriber callbacks run on the mutating
//     goroutine while the façade lock is held. Callbacks must therefore
//     not call back into the façade (the mutex is not re-entrant) —
//     they get the same contract as plain Network subscribers.
//   - asynchronous (WithAsyncEvents): callbacks run on a dedicated
//     dispatcher goroutine fed by an ordered queue, strictly in publish
//     order; an operation's events enter the queue together when it
//     returns. Mutating operations never wait for callbacks — the queue
//     grows past its initial capacity instead of blocking, so a
//     subscriber that falls behind costs memory, never deadlock or
//     loss — and callbacks may freely call any façade method, including
//     mutations. An operation never wakes a dispatcher that is
//     delivering or lingering (waiting one short linger for more
//     events), so while operations keep coming subscribers receive
//     events in batches, up to about one linger after the operation
//     returned. An idle dispatcher parks, and the first operation after
//     that wakes it. Close flushes the queue before returning.
//
// Determinism under concurrent *callers* is necessarily
// scheduling-dependent (the interleaving of operations is whatever the
// callers make it), but each individual operation remains the paper's
// algorithm, and a single-caller Concurrent with a fixed seed
// reproduces the plain Network byte for byte.
type Concurrent struct {
	mu  sync.Mutex
	nw  *Network
	rng *rand.Rand // façade-owned sampling source; guarded by mu

	evq           *eventQueue   // non-nil in async mode
	done          chan struct{} // dispatcher exit signal
	dispatcherGid atomic.Uint64 // goroutine id of the dispatcher (async mode)
	// opEvents collects the running operation's events in async mode,
	// under mu; op hands them to the queue in one push (handOff).
	opEvents []Event

	subMu    sync.Mutex
	subs     []subscriber
	subsSnap []subscriber
	nextSub  int
	// nsubs is len(subs), written under subMu and read without it by the
	// wrapped Network's event guard (forwardIdle), which runs under mu.
	nsubs atomic.Int32

	closed    bool
	closeDone chan struct{} // closed once the first Close has fully torn down
	closeErr  error         // the first Close's result; valid after closeDone
}

// NewConcurrent builds a Network wrapped in a Concurrent façade. It
// accepts every option New accepts, plus WithAsyncEvents. Call Close
// when done — it flushes and stops the async dispatcher (if any) and
// closes the WAL (WithPersistence).
func NewConcurrent(opts ...Option) (*Concurrent, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	nw, err := newFromOptions(o)
	if err != nil {
		return nil, err
	}
	c := &Concurrent{
		nw: nw,
		// The sampling stream is deliberately decoupled from the engine
		// seed so Sample calls never perturb seeded recovery runs.
		rng:       rand.New(rand.NewSource(o.cfg.Seed ^ 0x5a3c_f00d)),
		closeDone: make(chan struct{}),
	}
	// The forwarder stays subscribed for the façade's lifetime, but the
	// engine builds no event while the façade itself has no subscriber:
	// an event published before a Subscribe is not a future event, and
	// dropping it saves boxing every migrated vertex into Event.
	nw.Subscribe(c.forward)
	nw.forwardIdle = func() bool { return c.nsubs.Load() == 0 }
	if o.asyncBuf >= 0 {
		c.evq = newEventQueue(o.asyncBuf)
		c.done = make(chan struct{})
		go c.dispatch()
	}
	return c, nil
}

// forward routes one engine event to the façade's subscribers: into the
// running operation's batch in async mode, inline otherwise. It runs
// with c.mu held (events only fire inside mutating operations).
func (c *Concurrent) forward(ev Event) {
	if c.evq != nil {
		c.opEvents = append(c.opEvents, ev)
		return
	}
	c.deliver(ev)
}

// handOff passes the operation's events to the dispatcher in one push,
// which must never block: the dispatcher may itself be blocked inside a
// callback that is waiting for c.mu.
func (c *Concurrent) handOff() {
	if len(c.opEvents) == 0 {
		return
	}
	c.evq.push(c.opEvents)
	if cap(c.opEvents) > evQueueResetCap {
		c.opEvents = nil
		return
	}
	clear(c.opEvents) // the queue holds its own copies
	c.opEvents = c.opEvents[:0]
}

// dispatch is the async delivery loop: it drains the queue in publish
// order, hands each delivered batch back to the queue as its next
// buffer, and exits once Close marks the queue done and everything
// buffered has been delivered.
func (c *Concurrent) dispatch() {
	c.dispatcherGid.Store(goid())
	var batch []Event
	for {
		var ok bool
		batch, ok = c.evq.wait(batch)
		for _, ev := range batch {
			c.deliver(ev)
		}
		if !ok {
			close(c.done)
			return
		}
	}
}

// goid returns the current goroutine's id, parsed from the stable
// "goroutine N [state]:" header of runtime.Stack. Only used on the
// Close path to recognize a Close issued from inside a subscriber
// callback (i.e. on the dispatcher goroutine itself) — such a Close
// must not wait for the dispatcher to finish draining, because the
// dispatcher is blocked inside that very callback.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// eventQueue is the unbounded FIFO between publishers and the
// dispatcher. Unbounded is a correctness requirement, not a
// convenience: publishers hold the façade lock, and a bounded queue
// would deadlock the moment it filled while a dispatcher callback was
// calling back into the façade.
//
// A push never wakes a dispatcher that is delivering or lingering. A
// dispatcher that finds the queue empty sleeps one evQueueLinger on its
// own timer, then looks again, and parks on ready only if the queue is
// still empty. While operations keep coming, subscribers thus receive
// events in batches, up to about one linger after the operation
// returned, and no operation pays for a wake-up. An idle dispatcher
// parks, and the first push after that wakes it.
type eventQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []Event
	parked bool // the dispatcher waits on ready: the next push signals it
	closed bool
	stop   chan struct{} // closed by close: cuts a linger short
	linger *time.Timer   // the dispatcher's; armed by each linger
}

// evQueueLinger is how long a dispatcher that found the queue empty
// waits before it looks again and, the queue still empty, parks. 1 ms is
// the shortest timed wait the runtime honours once its network poller
// is initialized (opening a WAL does that): it rounds shorter waits up.
const evQueueLinger = time.Millisecond

// evQueueResetCap bounds the capacity of the buffers the queue keeps
// across batch swaps. The dispatcher hands each delivered batch back as
// the next buffer, so two buffers alternate, unless its capacity passed
// this cap: one slow-subscriber burst must not stay pinned, and a huge
// initial capacity is dropped after its first round. A replacement
// buffer sizes to twice the batch just handed over, never above the
// cap. It also bounds the capacity an operation's batch (opEvents)
// keeps for the next one, so a rebuild's burst of transfers is not
// pinned.
const evQueueResetCap = 4096

func newEventQueue(capacity int) *eventQueue {
	q := &eventQueue{
		buf:    make([]Event, 0, capacity),
		stop:   make(chan struct{}),
		linger: time.NewTimer(evQueueLinger),
	}
	q.linger.Stop()
	q.ready.L = &q.mu
	return q
}

// push appends an operation's events and wakes the dispatcher only if
// it is parked, once per park.
func (q *eventQueue) push(evs []Event) {
	q.mu.Lock()
	q.buf = append(q.buf, evs...)
	wake := q.parked
	q.parked = false
	q.mu.Unlock()
	if wake {
		q.ready.Signal()
	}
}

// wait returns the queued events in order, lingering and then parking
// while there are none, or ok=false once the queue is closed and empty.
// done is the batch the dispatcher has just delivered: wait clears it,
// so it pins no delivered event, and keeps it as the next buffer unless
// its capacity passed evQueueResetCap. The handed-out batch lets the
// dispatcher deliver without the queue lock.
func (q *eventQueue) wait(done []Event) (batch []Event, ok bool) {
	clear(done)
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == 0 && !q.closed {
		q.mu.Unlock()
		q.linger.Reset(evQueueLinger)
		select {
		case <-q.linger.C:
		case <-q.stop:
		}
		q.mu.Lock()
	}
	for len(q.buf) == 0 && !q.closed {
		q.parked = true
		q.ready.Wait()
	}
	batch = q.buf
	if cap(done) == 0 || cap(done) > evQueueResetCap {
		done = make([]Event, 0, min(max(2*len(batch), 64), evQueueResetCap))
	}
	q.buf = done[:0]
	return batch, !q.closed || len(batch) > 0
}

// close marks the queue done and wakes the dispatcher, parked or
// lingering, so Close never waits out a linger.
func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Signal()
	close(q.stop)
}

// deliver invokes the façade's subscribers in registration order,
// iterating a pinned snapshot exactly like Network.publish so
// subscribe/cancel during delivery cannot disturb the in-flight round.
// A raw edge log is netted into its EdgesChanged here, on the
// delivering goroutine: the dispatcher in async mode.
func (c *Concurrent) deliver(ev Event) {
	c.subMu.Lock()
	if len(c.subs) == 0 {
		c.subMu.Unlock()
		return
	}
	if c.subsSnap == nil {
		c.subsSnap = append([]subscriber(nil), c.subs...)
	}
	snap := c.subsSnap
	c.subMu.Unlock()
	if l, raw := ev.(edgeLog); raw {
		e, diff := netEdges(l.step, l.log)
		if !diff {
			return
		}
		ev = e
	}
	for _, s := range snap {
		s.fn(ev)
	}
}

// Subscribe registers fn for every future event and returns an
// idempotent cancel function. In async mode fn runs on the dispatcher
// goroutine, in publish order; in sync mode it runs on the mutating
// goroutine under the façade lock (and must not call back into the
// façade).
func (c *Concurrent) Subscribe(fn func(Event)) (cancel func()) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	id := c.nextSub
	c.nextSub++
	c.subs = append(c.subs, subscriber{id: id, fn: fn})
	c.subsSnap = nil
	c.nsubs.Add(1)
	return func() {
		c.subMu.Lock()
		defer c.subMu.Unlock()
		for i, s := range c.subs {
			if s.id == id {
				c.subs = append(c.subs[:i], c.subs[i+1:]...)
				c.subsSnap = nil
				c.nsubs.Add(-1)
				return
			}
		}
	}
}

// Subscribers returns the number of live subscriptions.
func (c *Concurrent) Subscribers() int {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return len(c.subs)
}

// op runs one mutating call under the façade lock. In async mode the
// call's events reach the queue together when it returns, panics
// included, and before the lock is released, so they queue in the
// order the operations ran.
func (c *Concurrent) op(f func(*Network) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.evq != nil {
		defer c.handOff()
	}
	return f(c.nw)
}

// Insert adds node id attached at node attach and runs recovery.
func (c *Concurrent) Insert(id, attach NodeID) error {
	return c.op(func(nw *Network) error { return nw.Insert(id, attach) })
}

// Delete removes node id and runs recovery.
func (c *Concurrent) Delete(id NodeID) error {
	return c.op(func(nw *Network) error { return nw.Delete(id) })
}

// InsertBatch performs one adversarial step inserting all specs at once.
func (c *Concurrent) InsertBatch(specs []InsertSpec) error {
	return c.op(func(nw *Network) error { return nw.InsertBatch(specs) })
}

// DeleteBatch performs one adversarial step deleting all ids at once.
func (c *Concurrent) DeleteBatch(ids []NodeID) error {
	return c.op(func(nw *Network) error { return nw.DeleteBatch(ids) })
}

// Do runs f with exclusive access to the wrapped Network: an escape
// hatch for multi-call atomic sections (inspect-then-mutate, invariant
// probes around an operation) that must not interleave with other
// callers. f must not retain the *Network, and in sync-events mode it
// inherits the callback restrictions of any mutation it performs. An f
// that reads nw.Graph() gets the live overlay, and from then on the
// engine keeps that view and edits it with every edge change, so later
// Snapshots clone it instead of deriving their copies.
func (c *Concurrent) Do(f func(*Network) error) error { return c.op(f) }

// Size returns the current number of real nodes n.
func (c *Concurrent) Size() int { return locked(c, (*Network).Size) }

// P returns the current p-cycle modulus.
func (c *Concurrent) P() int64 { return locked(c, (*Network).P) }

// Zeta returns the configured maximum cloud size.
func (c *Concurrent) Zeta() int { return locked(c, (*Network).Zeta) }

// MaxLoad returns the maximum load over all nodes.
func (c *Concurrent) MaxLoad() int { return locked(c, (*Network).MaxLoad) }

// SpareCount returns |Spare|.
func (c *Concurrent) SpareCount() int { return locked(c, (*Network).SpareCount) }

// LowCount returns |Low|.
func (c *Concurrent) LowCount() int { return locked(c, (*Network).LowCount) }

// Coordinator returns the node currently simulating vertex 0.
func (c *Concurrent) Coordinator() NodeID { return locked(c, (*Network).Coordinator) }

// FreshID returns a never-used node id and advances the internal
// counter; concurrent callers receive distinct ids.
func (c *Concurrent) FreshID() NodeID { return locked(c, (*Network).FreshID) }

// Nodes returns the current node ids in ascending order (a fresh
// slice; safe to retain).
func (c *Concurrent) Nodes() []NodeID { return locked(c, (*Network).Nodes) }

// Totals returns O(1)-memory lifetime aggregates of the per-step
// metrics.
func (c *Concurrent) Totals() Totals { return locked(c, (*Network).Totals) }

// LastStep returns the metrics of the most recent step.
func (c *Concurrent) LastStep() StepMetrics { return locked(c, (*Network).LastStep) }

// LastCost returns the most recent step's cost triple.
func (c *Concurrent) LastCost() Cost { return locked(c, (*Network).LastCost) }

// Load returns the number of virtual vertices node u simulates.
func (c *Concurrent) Load(u NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.Load(u)
}

// History returns a copy of the per-step metrics history. Unlike the
// plain Network's History, the returned slice is the caller's own: the
// engine's backing array keeps being appended (and, under
// WithHistoryCap, compacted in place) by later operations, so an
// aliased view would be torn under concurrency.
func (c *Concurrent) History() []StepMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StepMetrics(nil), c.nw.History()...)
}

// Snapshot returns a deep copy of the overlay graph and the epoch it
// was taken at: a consistent point-in-time view that can be read
// lock-free forever, no matter how the live network churns on. This is
// how subscriber mirrors, spectral probes, and debuggers read a
// concurrently maintained overlay. Snapshot keeps no overlay view. With
// none kept, it derives the copy from the virtual mapping: about 90 ms
// at 10^5 nodes. With one kept, it clones that view once: about 12 ms.
// A view is kept once a Do caller has read Network.Graph, or while the
// engine's own steps keep one (see Network.Graph). Either cost is
// linear in the overlay's size and is paid under the façade's lock. A
// caller that snapshots repeatedly can keep a view through Do, reading
// nw.Graph() once, so that each later snapshot costs one clone; the
// engine then edits that view with every edge change.
func (c *Concurrent) Snapshot() (*Graph, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.eng.Snapshot()
}

// Graph returns a point-in-time snapshot of the overlay (satisfying
// the Maintainer contract), at Snapshot's cost. The live graph is never
// exposed — it may be mid-mutation on another goroutine; use Snapshot
// to also learn the epoch, or Do for an exclusive look at the live
// structure.
func (c *Concurrent) Graph() *Graph {
	g, _ := c.Snapshot()
	return g
}

// SampleNode returns a uniformly random live node id in O(1), drawing
// from the caller-owned rng (see Network.SampleNode for the ownership
// rule; the façade lock protects the network, not the caller's rng).
func (c *Concurrent) SampleNode(rng *rand.Rand) NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.SampleNode(rng)
}

// Sample returns a uniformly random live node id in O(1) from the
// façade's own locked source — the race-free way for many goroutines
// to pick churn targets without coordinating RNG ownership.
func (c *Concurrent) Sample() NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.SampleNode(c.rng)
}

// CheckInvariants mechanically verifies every structural invariant of
// the paper.
func (c *Concurrent) CheckInvariants() error {
	return c.op(func(nw *Network) error { return nw.CheckInvariants() })
}

// Audit runs the given invariant-checking tier immediately.
func (c *Concurrent) Audit(mode AuditMode) error {
	return c.op(func(nw *Network) error { return nw.Audit(mode) })
}

// Close shuts the façade down: subsequent mutating operations return
// ErrClosed, every event already published is delivered (the async
// queue is drained in order) before Close returns, and then the WAL
// (WithPersistence) is closed, so no WAL append can land after Close
// returns. Idempotent, and a late duplicate Close waits for the winning
// Close to finish the whole teardown (drain included) and returns its
// result, so no caller can observe Close-returned while callbacks are
// still running or the WAL is still open. One exception, by necessity:
// a Close called from inside a subscriber callback (on the dispatcher
// goroutine) cannot wait for its own goroutine to finish draining — it
// initiates (or observes) shutdown and returns nil; the dispatcher
// still delivers everything already queued after the callback returns.
func (c *Concurrent) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	onDispatcher := c.evq != nil && goid() == c.dispatcherGid.Load()
	if already {
		if onDispatcher {
			return nil
		}
		if c.evq != nil {
			<-c.done
		}
		<-c.closeDone
		return c.closeErr
	}
	if c.evq != nil {
		c.evq.close()
		if !onDispatcher {
			<-c.done
		}
	}
	c.closeErr = c.nw.Close()
	close(c.closeDone)
	return c.closeErr
}

// locked runs a read accessor under the façade lock.
func locked[T any](c *Concurrent, f func(*Network) T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f(c.nw)
}

// The façade satisfies the same public contracts as the plain Network.
var (
	_ Maintainer       = (*Concurrent)(nil)
	_ InvariantChecker = (*Concurrent)(nil)
	_ Coordinated      = (*Concurrent)(nil)
	_ NodeSampler      = (*Concurrent)(nil)
)
