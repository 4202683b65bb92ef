package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/dex"
	"repro/internal/graph"
)

// epoch anchors now(); time.Since reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// facade is the part of the dex API the closed loop drives. Both
// *dex.Network and *dex.Concurrent provide it.
type facade interface {
	Insert(id, attach dex.NodeID) error
	Delete(id dex.NodeID) error
	LastStep() dex.StepMetrics
	Totals() dex.Totals
	Size() int
	P() int64
	CheckInvariants() error
	Close() error
}

// system is the program under test: one dex façade built the way the
// workload prescribes and, on durable-full, its directory and the
// subscriber mirroring the overlay.
type system struct {
	fa   facade
	nw   *dex.Network    // plain façade (nil on durable-full)
	c    *dex.Concurrent // durable-full
	opts []dex.Option
	dir  string
	sub  *subscriber
}

// newSystem builds the façade. recv, when non-nil, receives the arrival
// time of each window step's EdgesChanged event (durable-full, traced).
func newSystem(w workload, sz size, seed int64, dir string, recv []int64) (*system, error) {
	opts := []dex.Option{dex.WithInitialSize(sz.initial), dex.WithMode(w.mode), dex.WithSeed(seed), dex.WithHistoryCap(historyCap)}
	if !w.durable {
		nw, err := dex.New(opts...)
		if err != nil {
			return nil, err
		}
		return &system{fa: nw, nw: nw, opts: opts}, nil
	}
	opts = append(opts,
		// NoSync: fsync on a shared VM measures the disk, not the program.
		dex.WithPersistence(dir, dex.WithNoSync(true), dex.WithGroupCommit(1), dex.WithCheckpointEvery(checkpointEvery)),
		dex.WithAuditMode(dex.AuditSampled),
		dex.WithAsyncEvents(1024),
		dex.WithEdgeEvents(true),
	)
	c, err := dex.NewConcurrent(opts...)
	if err != nil {
		return nil, err
	}
	sub := &subscriber{mirror: c.Graph(), base: sz.growTo - sz.initial, recv: recv}
	c.Subscribe(sub.on)
	return &system{fa: c, c: c, opts: opts, dir: dir, sub: sub}, nil
}

func (s *system) apply(o op) error {
	if o.del {
		return s.fa.Delete(o.id)
	}
	return s.fa.Insert(o.id, o.attach)
}

// withGraph runs f on the live overlay with exclusive access.
func (s *system) withGraph(f func(*dex.Graph)) {
	if s.c == nil {
		f(s.nw.Graph())
		return
	}
	_ = s.c.Do(func(nw *dex.Network) error { f(nw.Graph()); return nil }) // f cannot fail; Do only reports ErrClosed
}

// discard closes a set-up that will not be measured and deletes its
// directory.
func (s *system) discard() {
	_ = s.fa.Close() // a discarded set-up's state is never read again
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// subscriber mirrors the overlay from EdgesChanged events and counts the
// events of window steps. It runs on the façade's dispatcher goroutine;
// its fields are read only after Close has drained the queue.
type subscriber struct {
	mirror *dex.Graph
	base   int     // steps taken by set-up; later steps are window steps
	last   int     // step of the last stepped event seen
	events int64   // events of window steps
	recv   []int64 // arrival time of window step base+1+i's EdgesChanged
}

func (s *subscriber) on(ev dex.Event) {
	// Transfers and rebuilds carry no step; they precede their step's
	// EdgesChanged, so they belong to the step after the last one seen.
	step := s.last + 1
	switch e := ev.(type) {
	case dex.EdgesChanged:
		step, s.last = e.Step, e.Step
		if i := step - s.base - 1; i >= 0 && i < len(s.recv) {
			s.recv[i] = now()
		}
		applyDeltas(s.mirror, e.Deltas)
	case dex.StaggerStarted:
		step = e.Step
	case dex.StaggerFinished:
		step = e.Step
	}
	if step > s.base {
		s.events++
	}
}

func applyDeltas(g *graph.Graph, deltas []graph.EdgeDelta) {
	for _, d := range deltas {
		if d.Delta > 0 {
			g.AddEdgeMult(d.U, d.V, d.Delta)
		} else {
			g.RemoveEdgeMult(d.U, d.V, -d.Delta)
		}
	}
	// Every live node keeps edges, so a node the step left without any
	// has departed. Drop it as the overlay does; otherwise the mirror
	// keeps every node that ever joined, and on durable-full heap_mb
	// would measure the mirror's growth instead of the program's.
	for _, d := range deltas {
		if d.Delta < 0 {
			for _, u := range [2]graph.NodeID{d.U, d.V} {
				if g.HasNode(u) && g.Degree(u) == 0 {
					g.RemoveNode(u)
				}
			}
		}
	}
}

// sameGraph compares two overlays' node counts and edge multisets.
func sameGraph(a, b *graph.Graph) bool {
	return a.NumNodes() == b.NumNodes() && slices.Equal(a.Edges(), b.Edges())
}

// newestFile returns the size of the lexically last file matching
// pattern in dir (checkpoint and WAL names are zero-padded steps, so
// that is the newest), or 0 when none matches.
func newestFile(dir, pattern string) int64 {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(names) == 0 {
		return 0
	}
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0
	}
	return fi.Size()
}

// reopen closes durable-full's façade, resumes its directory with the
// same options and checks that the resumed network reproduces the
// history root and lifetime totals. It returns the time the resume took.
func (s *system) reopen() (time.Duration, error) {
	root, steps := s.c.LastRoot()
	totals := s.c.Totals()
	if err := s.c.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	t := now()
	c2, err := dex.NewConcurrent(s.opts...)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	took := time.Duration(now() - t)
	root2, steps2 := c2.LastRoot()
	totals2 := c2.Totals()
	if err := c2.Close(); err != nil {
		return took, fmt.Errorf("close reopened: %w", err)
	}
	if root2 != root || steps2 != steps {
		return took, fmt.Errorf("reopened root %x@%d, want %x@%d", root2, steps2, root, steps)
	}
	if totals2 != totals {
		return took, fmt.Errorf("reopened totals %+v, want %+v", totals2, totals)
	}
	return took, nil
}
