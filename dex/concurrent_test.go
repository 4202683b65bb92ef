package dex_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dex"
)

// driveSeededChurn applies the identical seeded op sequence to any
// maintainer-shaped driver via the supplied closures.
func driveSeededChurn(t *testing.T, seed int64, steps int, size func() int, nodes func() []dex.NodeID, fresh func() dex.NodeID, insert func(id, at dex.NodeID) error, del func(id dex.NodeID) error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		ns := nodes()
		var err error
		if rng.Float64() < 0.55 || size() <= 6 {
			err = insert(fresh(), ns[rng.Intn(len(ns))])
		} else {
			err = del(ns[rng.Intn(len(ns))])
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestConcurrentMatchesPlain: a single-caller Concurrent façade
// reproduces the plain Network byte for byte — History, overlay, node
// set.
func TestConcurrentMatchesPlain(t *testing.T) {
	plain, err := dex.New(dex.WithInitialSize(24), dex.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := dex.NewConcurrent(dex.WithInitialSize(24), dex.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	driveSeededChurn(t, 21, 300, plain.Size, plain.Nodes, plain.FreshID, plain.Insert, plain.Delete)
	driveSeededChurn(t, 21, 300, conc.Size, conc.Nodes, conc.FreshID, conc.Insert, conc.Delete)

	if !reflect.DeepEqual(plain.History(), conc.History()) {
		t.Fatal("histories diverged between plain and concurrent façade")
	}
	if !reflect.DeepEqual(plain.Nodes(), conc.Nodes()) {
		t.Fatal("node sets diverged")
	}
	snap, epoch := conc.Snapshot()
	if !reflect.DeepEqual(plain.Graph().Edges(), snap.Edges()) {
		t.Fatal("overlay edge multisets diverged")
	}
	if epoch == 0 {
		t.Fatal("snapshot epoch is zero after 300 churn steps")
	}
	if err := conc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHammer is the -race gate: goroutines hammering churn
// ops, subscription churn, and snapshot/history/sample readers against
// one façade with async events. Correctness here is "no race, no
// deadlock, invariants hold, events flow".
func TestConcurrentHammer(t *testing.T) {
	c, err := dex.NewConcurrent(
		dex.WithInitialSize(32),
		dex.WithSeed(31),
		dex.WithAsyncEvents(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	var events atomic.Int64
	cancel := c.Subscribe(func(dex.Event) { events.Add(1) })
	defer cancel()

	const opsPerWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				if rng.Float64() < 0.6 || c.Size() <= 12 {
					// The sampled attach point can be deleted by the peer
					// goroutine before Insert takes the lock; that surfaces
					// as ErrUnknownNode and is part of the contract.
					err := c.Insert(c.FreshID(), c.Sample())
					if err != nil && !errors.Is(err, dex.ErrUnknownNode) {
						t.Errorf("insert: %v", err)
						return
					}
				} else {
					err := c.Delete(c.Sample())
					if err != nil && !errors.Is(err, dex.ErrUnknownNode) && !errors.Is(err, dex.ErrTooSmall) {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(int64(100 + w))
	}
	// Subscription churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			stop := c.Subscribe(func(dex.Event) {})
			stop()
		}
	}()
	// Readers: snapshots, history copies, aggregates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			snap, _ := c.Snapshot()
			if snap.NumNodes() == 0 {
				t.Error("empty snapshot")
				return
			}
			_ = c.History()
			_ = c.Totals()
			_ = c.MaxLoad()
			_ = c.Nodes()
		}
	}()
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent hammer: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Fatal("no events delivered")
	}
	if err := c.Insert(c.FreshID(), 0); !errors.Is(err, dex.ErrClosed) {
		t.Fatalf("insert after Close: %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// churnStream drives steps of seeded churn (seed 41) through a
// Concurrent façade built from 16 nodes with opts, plus
// WithAsyncEvents(512) when async is set, and returns the event stream
// one subscriber received, complete once Close has flushed the queue.
func churnStream(t *testing.T, async bool, steps int, opts ...dex.Option) []dex.Event {
	t.Helper()
	opts = append([]dex.Option{dex.WithInitialSize(16), dex.WithSeed(41)}, opts...)
	if async {
		opts = append(opts, dex.WithAsyncEvents(512))
	}
	c, err := dex.NewConcurrent(opts...)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []dex.Event
	c.Subscribe(func(ev dex.Event) { mu.Lock(); got = append(got, ev); mu.Unlock() })
	driveSeededChurn(t, 41, steps, c.Size, c.Nodes, c.FreshID, c.Insert, c.Delete)
	if err := c.Close(); err != nil { // flushes the queue in async mode
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return got
}

// TestAsyncEventsOrderAndFlush: the async dispatcher delivers exactly
// the synchronous event stream, in order, and Close flushes everything
// still buffered.
func TestAsyncEventsOrderAndFlush(t *testing.T) {
	sync1 := churnStream(t, false, 200)
	async1 := churnStream(t, true, 200)
	if len(sync1) == 0 {
		t.Fatal("no events in 200 churn steps")
	}
	if !reflect.DeepEqual(sync1, async1) {
		t.Fatalf("async stream diverged from sync stream: %d vs %d events", len(async1), len(sync1))
	}
}

// TestAsyncEdgeEventsMatchSync builds the façade the durable-full
// benchmark runs, with persistence, the sampled audit and edge events,
// and requires the async stream, whose edge diffs the dispatcher nets
// from raw edge logs, to equal the sync stream, netted on the mutating
// goroutine, event for event, through churn that rebuilds the cycle;
// every diff must keep the EdgesChanged contract (checkNetted).
func TestAsyncEdgeEventsMatchSync(t *testing.T) {
	const steps = 1500
	opts := func() []dex.Option {
		return []dex.Option{
			dex.WithPersistence(t.TempDir(), dex.WithNoSync(true), dex.WithGroupCommit(1), dex.WithCheckpointEvery(256)),
			dex.WithAuditMode(dex.AuditSampled),
			dex.WithEdgeEvents(true),
		}
	}
	sync1 := churnStream(t, false, steps, opts()...)
	async1 := churnStream(t, true, steps, opts()...)
	diffs, rebuilds := 0, 0
	for _, ev := range sync1 {
		switch e := ev.(type) {
		case dex.EdgesChanged:
			checkNetted(t, e.Deltas)
			diffs++
		case dex.GraphRebuilt:
			rebuilds++
		}
	}
	if diffs != steps || rebuilds == 0 {
		t.Fatalf("the sync stream holds %d edge diffs in %d steps and %d rebuilds, want one diff per step and a rebuild", diffs, steps, rebuilds)
	}
	if !reflect.DeepEqual(sync1, async1) {
		t.Fatalf("async stream diverged from sync stream: %d vs %d events", len(async1), len(sync1))
	}
}

// TestAsyncInnerSubscriberGetsNettedDiffs: a subscriber on an async
// façade's wrapped Network, registered through Do, receives its events
// on the mutating goroutine, so the edge diffs it gets are netted there
// and obey the EdgesChanged contract, and they equal the diffs the
// façade's own subscriber receives from the dispatcher.
func TestAsyncInnerSubscriberGetsNettedDiffs(t *testing.T) {
	c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(53), dex.WithAsyncEvents(64), dex.WithEdgeEvents(true))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var outer []dex.EdgesChanged
	c.Subscribe(func(ev dex.Event) {
		if e, ok := ev.(dex.EdgesChanged); ok {
			mu.Lock()
			outer = append(outer, e)
			mu.Unlock()
		}
	})
	var inner []dex.EdgesChanged
	mirror := newMirror(c.Graph())
	_ = c.Do(func(nw *dex.Network) error { // Do only fails once closed
		nw.Subscribe(func(ev dex.Event) {
			switch e := ev.(type) {
			case dex.EdgesChanged:
				mirror.apply(t, e.Deltas)
				inner = append(inner, e)
			case dex.VertexTransferred, dex.GraphRebuilt, dex.StaggerStarted, dex.StaggerFinished:
			default:
				t.Fatalf("inner subscriber received a %T", ev)
			}
		})
		return nil
	})
	driveSeededChurn(t, 53, 300, c.Size, c.Nodes, c.FreshID, c.Insert, c.Delete)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(inner) != 300 || !reflect.DeepEqual(inner, outer) {
		t.Fatalf("the inner subscriber got %d edge diffs in 300 steps, the façade's %d, or they differ", len(inner), len(outer))
	}
}

// TestAsyncDoDeliversOnErrorAndPanic: the events a Do body publishes
// reach async subscribers when the body fails after mutating, by
// returning an error or by panicking, as when it succeeds. Each call's
// edge diff must arrive before the next call starts, and the whole
// stream must equal a sync façade's through the same calls.
func TestAsyncDoDeliversOnErrorAndPanic(t *testing.T) {
	errBody := errors.New("body failed after its insert")
	run := func(async bool) []dex.Event {
		opts := []dex.Option{dex.WithInitialSize(16), dex.WithSeed(47), dex.WithEdgeEvents(true)}
		if async {
			opts = append(opts, dex.WithAsyncEvents(8))
		}
		c, err := dex.NewConcurrent(opts...)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []dex.Event
		steps := make(chan int, 3) // one edge diff per call, three calls
		c.Subscribe(func(ev dex.Event) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
			if e, ok := ev.(dex.EdgesChanged); ok {
				steps <- e.Step
			}
		})
		delivered := func(step int) {
			t.Helper()
			select {
			case s := <-steps:
				if s != step {
					t.Fatalf("edge diff of step %d arrived, want step %d", s, step)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("step %d's edge diff never arrived", step)
			}
		}
		insertThen := func(after func() error) error {
			return c.Do(func(nw *dex.Network) error {
				if err := nw.Insert(nw.FreshID(), 0); err != nil {
					return err
				}
				return after()
			})
		}
		if err := insertThen(func() error { return errBody }); !errors.Is(err, errBody) {
			t.Fatalf("Do returned %v, want the body's error", err)
		}
		delivered(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the body's panic did not reach Do's caller")
				}
			}()
			_ = insertThen(func() error { panic("body panics after its insert") })
		}()
		delivered(2)
		if err := c.Insert(c.FreshID(), 0); err != nil {
			t.Fatal(err)
		}
		delivered(3)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}
	sync1, async1 := run(false), run(true)
	if !reflect.DeepEqual(sync1, async1) {
		t.Fatalf("async stream diverged from sync stream: %d vs %d events", len(async1), len(sync1))
	}
}

// recordSteps subscribes to c. It returns the stream of events the
// subscriber received so far and a channel that carries each
// EdgesChanged's step. The channel holds 2n steps, so that even a
// stream that repeats each of n steps never blocks the dispatcher.
func recordSteps(c *dex.Concurrent, n int) (stream func() []dex.Event, steps chan int) {
	var mu sync.Mutex
	var got []dex.Event
	steps = make(chan int, 2*n)
	c.Subscribe(func(ev dex.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
		if e, ok := ev.(dex.EdgesChanged); ok {
			steps <- e.Step
		}
	})
	return func() []dex.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]dex.Event(nil), got...)
	}, steps
}

// awaitStep fails t unless the next edge diff on steps arrives within
// 10 s and is step want's.
func awaitStep(t *testing.T, steps <-chan int, want int) {
	t.Helper()
	select {
	case s := <-steps:
		if s != want {
			t.Fatalf("edge diff of step %d arrived, want step %d", s, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("step %d's edge diff never arrived", want)
	}
}

// TestAsyncLingerDeliversLoneOperation: an operation with none after
// it has its events delivered without a Close, whether it finds the
// dispatcher lingering (it runs right after the previous delivery) or
// parked (it runs after a pause of many lingers).
func TestAsyncLingerDeliversLoneOperation(t *testing.T) {
	c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(67), dex.WithAsyncEvents(8), dex.WithEdgeEvents(true))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, steps := recordSteps(c, 24)
	pauses := []time.Duration{0, 0, 100 * time.Microsecond, 5 * time.Millisecond, 0, 30 * time.Millisecond}
	id := dex.NodeID(1000)
	for i := 0; i < 4*len(pauses); i++ {
		time.Sleep(pauses[i%len(pauses)])
		if i%2 == 0 {
			err = c.Insert(id, 0)
		} else {
			err = c.Delete(id)
			id++
		}
		if err != nil {
			t.Fatal(err)
		}
		awaitStep(t, steps, i+1)
	}
}

// TestAsyncLingerBurstsMatchSync: goroutines send bursts of inserts
// and deletes separated by pauses shorter and longer than the
// dispatcher's linger, so operations find it delivering, lingering and
// parked. Every step's edge diff must arrive exactly once and in step
// order, the last one before Close, and the stream must equal a sync
// façade's through the operations in the order they ran, read back
// from History.
func TestAsyncLingerBurstsMatchSync(t *testing.T) {
	const workers, bursts, pairs = 3, 8, 2
	opts := func() []dex.Option {
		return []dex.Option{dex.WithInitialSize(16), dex.WithSeed(71), dex.WithEdgeEvents(true)}
	}
	c, err := dex.NewConcurrent(append(opts(), dex.WithAsyncEvents(8))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const ops = workers * bursts * 2 * pairs
	stream, steps := recordSteps(c, ops)
	// Worker w attaches its nodes at node w and owns the ids from
	// 1000*(w+1), so an operation's target names its anchor.
	anchor := func(id dex.NodeID) dex.NodeID { return id/1000 - 1 }
	pauses := []time.Duration{0, 200 * time.Microsecond, 3 * time.Millisecond, 20 * time.Millisecond}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := dex.NodeID(1000 * (w + 1))
			for b := 0; b < bursts; b++ {
				time.Sleep(pauses[(b+w)%len(pauses)])
				for k := dex.NodeID(0); k < pairs; k++ {
					if err := c.Insert(id+k, anchor(id)); err != nil {
						t.Error(err)
						return
					}
				}
				for k := dex.NodeID(0); k < pairs; k++ {
					if err := c.Delete(id + k); err != nil {
						t.Error(err)
						return
					}
				}
				id += pairs
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for s := 1; s <= ops; s++ {
		awaitStep(t, steps, s)
	}
	hist := c.History()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-steps:
		t.Fatalf("step %d's edge diff arrived twice", s)
	default:
	}

	sc, err := dex.NewConcurrent(opts()...)
	if err != nil {
		t.Fatal(err)
	}
	syncStream, _ := recordSteps(sc, ops)
	for _, m := range hist {
		if m.Op == dex.OpInsert {
			err = sc.Insert(m.Target, anchor(m.Target))
		} else {
			err = sc.Delete(m.Target)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	async1, sync1 := stream(), syncStream()
	for _, ev := range async1 {
		if e, ok := ev.(dex.EdgesChanged); ok {
			checkNetted(t, e.Deltas)
		}
	}
	if !reflect.DeepEqual(sync1, async1) {
		t.Fatalf("async stream diverged from sync stream: %d vs %d events", len(async1), len(sync1))
	}
}

// TestAsyncLingerCloseDelivers: a Close issued while the dispatcher
// lingers, right after it delivered one operation's events and with the
// next operation's events queued, returns with everything delivered.
func TestAsyncLingerCloseDelivers(t *testing.T) {
	for round := 0; round < 20; round++ {
		c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(int64(73+round)), dex.WithAsyncEvents(8), dex.WithEdgeEvents(true))
		if err != nil {
			t.Fatal(err)
		}
		_, steps := recordSteps(c, 2)
		if err := c.Insert(1000, 0); err != nil {
			t.Fatal(err)
		}
		awaitStep(t, steps, 1)
		if err := c.Insert(1001, 0); err != nil {
			t.Fatal(err)
		}
		closed := make(chan error, 1)
		go func() { closed <- c.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Close never returned", round)
		}
		select {
		case s := <-steps:
			if s != 2 {
				t.Fatalf("round %d: edge diff of step %d arrived, want step 2", round, s)
			}
		default:
			t.Fatalf("round %d: Close returned before step 2's edge diff was delivered", round)
		}
	}
}

// TestAsyncCallbackMayMutate: with async events a subscriber callback
// can call back into the façade — the very thing that is a deadlock in
// sync mode and ErrReentrantOp on the plain network.
func TestAsyncCallbackMayMutate(t *testing.T) {
	c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(51), dex.WithAsyncEvents(64))
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	reentry := make(chan error, 1)
	c.Subscribe(func(dex.Event) {
		once.Do(func() { reentry <- c.Insert(c.FreshID(), c.Sample()) })
	})
	driveSeededChurn(t, 51, 100, c.Size, c.Nodes, c.FreshID, c.Insert, c.Delete)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reentry:
		if err != nil && !errors.Is(err, dex.ErrClosed) {
			t.Fatalf("callback mutation failed: %v", err)
		}
	default:
		t.Fatal("callback never ran")
	}
}

// TestAsyncCallbackMayClose: a subscriber callback calling Close in
// async mode must not deadlock the dispatcher (Close detects it is on
// the dispatcher goroutine and skips waiting for its own drain); the
// façade still shuts down cleanly and a later Close from the outside
// waits for the drain and returns.
func TestAsyncCallbackMayClose(t *testing.T) {
	c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(61), dex.WithAsyncEvents(8))
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	var once sync.Once
	c.Subscribe(func(dex.Event) {
		delivered.Add(1)
		once.Do(func() {
			if err := c.Close(); err != nil {
				t.Errorf("callback Close: %v", err)
			}
		})
	})
	sawClosed := false
	for i := 0; i < 100000; i++ {
		if err := c.Insert(c.FreshID(), c.Sample()); errors.Is(err, dex.ErrClosed) {
			sawClosed = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
		runtime.Gosched() // let the dispatcher (and its Close) run
	}
	if err := c.Close(); err != nil { // outside Close: waits for the drain
		t.Fatal(err)
	}
	if !sawClosed {
		t.Fatal("callback Close never took effect")
	}
	if delivered.Load() == 0 {
		t.Fatal("no events delivered")
	}
}

// TestAsyncEventsRequiresConcurrent: plain New rejects WithAsyncEvents.
func TestAsyncEventsRequiresConcurrent(t *testing.T) {
	if _, err := dex.New(dex.WithAsyncEvents(8)); err == nil {
		t.Fatal("New accepted WithAsyncEvents")
	}
	if _, err := dex.NewConcurrent(dex.WithAsyncEvents(-1)); err == nil {
		t.Fatal("negative async buffer accepted")
	}
}

// TestConcurrentChurnAllocsWithoutSubscribers: a Concurrent façade with
// no subscriber builds no event, so subscriber-free churn (insert and
// delete pairs with the sampled audit on, as BenchmarkConcurrentChurn
// runs them) allocates nothing, with edge events off and on: the engine
// nets and copies no edge diff that nobody receives. A subscription
// receives the next pair's vertex transfers and, with edge events on,
// both steps' diffs, and cancelling it restores the zero.
func TestConcurrentChurnAllocsWithoutSubscribers(t *testing.T) {
	for _, edges := range []bool{false, true} {
		t.Run(fmt.Sprintf("edge-events=%v", edges), func(t *testing.T) {
			c, err := dex.NewConcurrent(dex.WithInitialSize(1024), dex.WithSeed(29), dex.WithAuditMode(dex.AuditSampled), dex.WithEdgeEvents(edges))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id := dex.NodeID(1_000_000)
			pair := func() {
				if err := c.Insert(id, 0); err != nil {
					t.Fatal(err)
				}
				if err := c.Delete(id); err != nil {
					t.Fatal(err)
				}
				id++
			}
			for i := 0; i < 256; i++ {
				pair()
			}
			if a := testing.AllocsPerRun(400, pair); a != 0 {
				t.Fatalf("subscriber-free churn allocates %.2f per pair, want 0", a)
			}
			transfers, diffs := 0, 0
			cancel := c.Subscribe(func(ev dex.Event) {
				switch ev.(type) {
				case dex.VertexTransferred:
					transfers++
				case dex.EdgesChanged:
					diffs++
				}
			})
			pair()
			if transfers == 0 {
				t.Fatal("the subscriber saw no vertex transfer of an insert and a delete")
			}
			want := 0
			if edges {
				want = 2
			}
			if diffs != want {
				t.Fatalf("the subscriber saw %d edge diffs of an insert and a delete, want %d", diffs, want)
			}
			cancel()
			if a := testing.AllocsPerRun(400, pair); a != 0 {
				t.Fatalf("churn after the last cancel allocates %.2f per pair, want 0", a)
			}
		})
	}
}

// TestConcurrentEdgeEventsMirrorSnapshots drives a Staggered
// Concurrent façade with edge events on through growth that inflates
// and shrinkage that deflates, mirroring the overlay from a Snapshot
// plus the EdgesChanged diffs, as the benchmark's subscriber does. A
// façade keeps no view for its events or its snapshots, so this runs
// on derived reads throughout. After every operation the mirror must
// equal a fresh Snapshot, and the Snapshot's epoch must equal that of
// a plain Network driven through the same operations, whose view is
// kept.
func TestConcurrentEdgeEventsMirrorSnapshots(t *testing.T) {
	opts := []dex.Option{dex.WithInitialSize(16), dex.WithSeed(43), dex.WithMode(dex.Staggered), dex.WithEdgeEvents(true)}
	plain, err := dex.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dex.NewConcurrent(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mirror := newMirror(c.Graph())
	c.Subscribe(func(ev dex.Event) {
		if e, ok := ev.(dex.EdgesChanged); ok {
			mirror.apply(t, e.Deltas)
		}
	})
	rng := rand.New(rand.NewSource(43))
	step := func(i int, insert bool) {
		nodes := c.Nodes()
		if insert {
			id, at := c.FreshID(), nodes[rng.Intn(len(nodes))]
			if err := c.Insert(id, at); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := plain.Insert(plain.FreshID(), at); err != nil {
				t.Fatalf("op %d, plain: %v", i, err)
			}
		} else {
			victim := nodes[rng.Intn(len(nodes))]
			if err := c.Delete(victim); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := plain.Delete(victim); err != nil {
				t.Fatalf("op %d, plain: %v", i, err)
			}
		}
		snap, epoch := c.Snapshot()
		sameEdgeMultiset(t, snap, mirror.g, i)
		if want := plain.Graph().Epoch(); epoch != want {
			t.Fatalf("op %d: snapshot epoch %d, plain network's %d", i, epoch, want)
		}
	}
	i := 0
	for ; c.Totals().InflateEvents == 0; i++ {
		if i == 2000 {
			t.Fatal("no inflation committed in 2000 inserts")
		}
		step(i, true)
	}
	for ; c.Totals().DeflateEvents == 0; i++ {
		if c.Size() <= 8 {
			t.Fatal("shrank to 8 nodes without a deflation")
		}
		step(i, false)
	}
	if !reflect.DeepEqual(plain.History(), c.History()) {
		t.Fatal("histories diverged between plain and concurrent façade")
	}
}
