package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// corruptible returns a churned network plus one of its nodes with at
// least one distinct-neighbor edge to tamper with.
func corruptible(t *testing.T) (*Network, NodeID) {
	t.Helper()
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 50)
	for _, u := range nw.Nodes() {
		if nw.Graph().DistinctDegree(u) > 0 {
			return nw, u
		}
	}
	t.Fatal("no node with edges")
	return nil, 0
}

func TestCheckNodeDetectsMissingEdge(t *testing.T) {
	nw, u := corruptible(t)
	var v NodeID = -1
	for _, w := range nw.Graph().Neighbors(u) {
		if w != u {
			v = w
			break
		}
	}
	if v < 0 {
		t.Fatal("no distinct neighbor")
	}
	nw.Graph().RemoveEdge(u, v) // corruption behind the engine's back
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a missing edge")
	}
	if err := nw.Audit(AuditFull); err == nil {
		t.Fatal("full audit missed a missing edge")
	}
}

func TestCheckNodeDetectsForeignEdge(t *testing.T) {
	nw, u := corruptible(t)
	nw.Graph().AddEdge(u, u) // spurious self-loop
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a spurious edge")
	}
}

func TestCheckNodeDetectsLoadCorruption(t *testing.T) {
	nw, u := corruptible(t)
	nw.st.corruptLoad(u, 1)
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a load mismatch")
	}
}

func TestCheckNodeDetectsMappingCorruption(t *testing.T) {
	nw, u := corruptible(t)
	sim := nw.st.setAt(nw.st.slot(u), false)
	if len(sim) == 0 {
		t.Fatal("node holds no vertex")
	}
	x := sim[0]
	// Point the vertex at a different owner without moving it.
	for _, w := range nw.Nodes() {
		if w != u {
			nw.simOf[x] = w
			break
		}
	}
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a Phi corruption")
	}
}

// TestSampledAuditChecksDirtyNodes verifies the sampled tier re-verifies
// exactly the nodes the last operation touched: corrupting a node's row
// and then operating on it must trip the next sampled audit.
func TestSampledAuditChecksDirtyNodes(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 30)
	if err := nw.Audit(AuditSampled); err != nil {
		t.Fatalf("sampled audit on healthy network: %v", err)
	}
	// Insert attached at a victim, then corrupt the victim's load. The
	// next operation touching it marks it dirty, so the sampled audit
	// must examine it.
	victim := nw.Nodes()[0]
	nw.st.corruptLoad(victim, 1)
	if err := nw.Insert(nw.FreshID(), victim); err != nil {
		t.Fatal(err)
	}
	if err := nw.Audit(AuditSampled); err == nil {
		t.Fatal("sampled audit missed a corrupted dirty node")
	} else if !strings.Contains(err.Error(), "load") {
		t.Fatalf("unexpected audit error: %v", err)
	}
}

func TestAuditOffIsSilent(t *testing.T) {
	nw, u := corruptible(t)
	nw.st.corruptLoad(u, 1) // corrupted on purpose
	if err := nw.Audit(AuditOff); err != nil {
		t.Fatalf("AuditOff reported %v", err)
	}
}

func TestAuditModeStrings(t *testing.T) {
	if AuditOff.String() != "off" || AuditSampled.String() != "sampled" || AuditFull.String() != "full" {
		t.Fatalf("unexpected audit mode strings: %v %v %v", AuditOff, AuditSampled, AuditFull)
	}
}

// TestSampleNodeTracksLiveSet checks the O(1) sampler stays in sync
// with the live node set under churn, including batch deletions.
func TestSampleNodeTracksLiveSet(t *testing.T) {
	nw := mustNew(t, 24, DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		if err := traceStep(nw, rng); err != nil {
			t.Fatal(err)
		}
		if len(nw.st.nodeList) != nw.Size() {
			t.Fatalf("step %d: sampler mirror has %d entries, network %d nodes", i, len(nw.st.nodeList), nw.Size())
		}
	}
	live := make(map[NodeID]bool, nw.Size())
	for _, u := range nw.Nodes() {
		live[u] = true
	}
	for i := 0; i < 500; i++ {
		if u := nw.SampleNode(rng); !live[u] {
			t.Fatalf("sampled dead node %d", u)
		}
	}
}

// TestHistoryCapCore checks the ring semantics and Totals at the engine
// level (the dex layer re-tests via options).
func TestHistoryCapCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryCap = 32
	nw := mustNew(t, 16, cfg)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		nodes := nw.Nodes()
		if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	if len(nw.History()) > 32 {
		t.Fatalf("history %d > cap 32", len(nw.History()))
	}
	if nw.Totals().Steps != 200 {
		t.Fatalf("Totals.Steps = %d", nw.Totals().Steps)
	}
	if got := nw.LastStep().Step; got != 200 {
		t.Fatalf("last step numbered %d, want 200", got)
	}
	if _, err := New(16, Config{Zeta: 8, Theta: 1.0 / 64, WalkFactor: 4, WalkRetryLimit: 64, HistoryCap: -1}); err == nil {
		t.Fatal("accepted negative history cap")
	}
}

// TestCheckNodeCorruptionTable corrupts one fact of a healthy network
// per case and requires CheckNode to fail at every live node the
// corruption touches: both endpoints of a corrupted edge, the holder of
// a corrupted vertex. The cases aim at each condition of the row match
// and at the messages its failing path reports: a cell whose
// multiplicity alone is wrong, one unit of multiplicity moved between
// two neighbors (u's degree and distinct count unchanged), foreign
// cells below and above the expected row, an expected neighbor missing
// above the run's last cell, the self-loop bookkeeping kept apart from
// the row (a spurious self-loop, one unit of an expected one, the whole
// self cell), a node missing from the sampling mirror or listed there
// with another live node's slot or a free one, mid-rebuild, the
// pending intermediate edges and NewSim ownership, and, on a network
// that keeps no view, a vertex whose simSlot names another node's slot.
//
// Every case also runs through the sampled audit, whose warm pass reads
// the same cells ahead of the checks: with one corrupted node marked
// dirty, Audit must return exactly CheckNode's error (and not panic in
// the warm pass); with all of them marked, in either order, it must
// name the one first in dirtyList. Warming every mirror entry, as if
// all were sampled, must not panic; checked through its mirror entry,
// as a sample is, each node must fail with CheckNode's error too; and
// the full audit must fail.
func TestCheckNodeCorruptionTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stagger bool
		derived bool   // run without a view, as an unobserved network does
		want    string // in the error of every node corrupt returns
		// corrupt tampers with nw behind the engine's back and returns
		// the nodes whose check must now fail.
		corrupt func(t *testing.T, nw *Network) []NodeID
	}{
		{"extra-multiplicity", false, false, "multiplicity", func(t *testing.T, nw *Network) []NodeID {
			u, v := edgeWith(t, nw, func(u, v NodeID) bool { return u != v })
			nw.Graph().AddEdge(u, v)
			return []NodeID{u, v}
		}},
		{"foreign-edge-below-run", false, false, "distinct real neighbors", func(t *testing.T, nw *Network) []NodeID {
			w := nw.Nodes()[0] // sorts below every neighbor of any other node
			u := nonNeighbor(t, nw, w)
			nw.Graph().AddEdge(u, w)
			return []NodeID{u, w}
		}},
		{"foreign-edge-above-run", false, false, "distinct real neighbors", func(t *testing.T, nw *Network) []NodeID {
			nodes := nw.Nodes()
			w := nodes[len(nodes)-1] // sorts above every neighbor of any other node
			u := nonNeighbor(t, nw, w)
			nw.Graph().AddEdge(u, w)
			return []NodeID{u, w}
		}},
		{"missing-edge-above-run", false, false, "distinct real neighbors", func(t *testing.T, nw *Network) []NodeID {
			// v is u's largest neighbor, so u's expected row outlasts its run.
			u, v := edgeWith(t, nw, func(u, v NodeID) bool {
				if v == u {
					return false
				}
				for _, w := range nw.Graph().Neighbors(u) {
					if w > v && w != u {
						return false
					}
				}
				return true
			})
			nw.Graph().RemoveEdgeMult(u, v, nw.Graph().Multiplicity(u, v))
			return []NodeID{u, v}
		}},
		{"unexpected-self-loop", false, false, "distinct real neighbors", func(t *testing.T, nw *Network) []NodeID {
			u := nodeWith(t, nw, func(u NodeID) bool { return nw.Graph().Multiplicity(u, u) == 0 })
			nw.Graph().AddEdge(u, u)
			return []NodeID{u}
		}},
		{"expected-self-loop-removed", false, false, "multiplicity", func(t *testing.T, nw *Network) []NodeID {
			u := nodeWith(t, nw, func(u NodeID) bool { return nw.Graph().Multiplicity(u, u) > 0 })
			nw.Graph().RemoveEdge(u, u)
			return []NodeID{u}
		}},
		{"pending-edge-removed", true, false, "distinct real neighbors", func(t *testing.T, nw *Network) []NodeID {
			s := nw.stag
			for _, u := range nw.Nodes() {
				for _, x := range nw.st.setAt(nw.st.slot(u), false) {
					for _, pe := range s.pending[Vertex(x)] {
						if w := s.newSimOf[pe.src]; w != u {
							if !nw.Graph().RemoveEdge(u, w) {
								t.Fatalf("pending edge {%d,%d} is not a real edge", u, w)
							}
							return []NodeID{u, w}
						}
					}
				}
			}
			t.Fatal("no pending intermediate edge between two nodes")
			return nil
		}},
		{"newsim-owner-corrupted", true, false, "NewSim(", func(t *testing.T, nw *Network) []NodeID {
			u := nodeWith(t, nw, func(u NodeID) bool { return nw.st.setLenAt(nw.st.slot(u), true) > 0 })
			w := nodeWith(t, nw, func(w NodeID) bool { return w != u })
			nw.stag.newSimOf[nw.st.setAt(nw.st.slot(u), true)[0]] = w
			return []NodeID{u}
		}},
		{"missing-from-mirror", false, false, "missing from sampling mirror", func(t *testing.T, nw *Network) []NodeID {
			u := nw.Nodes()[1]
			nw.st.rows[nw.st.slot(u)].pos = -1
			return []NodeID{u}
		}},
		{"multiplicity-moved", false, false, "multiplicity", func(t *testing.T, nw *Network) []NodeID {
			// One unit moves from {u,v} to an existing {u,w}: u keeps its
			// total degree and its distinct neighbors, and only the
			// per-neighbor multiplicities tell.
			var w NodeID
			u, v := edgeWith(t, nw, func(u, v NodeID) bool {
				if v == u || nw.Graph().Multiplicity(u, v) < 2 {
					return false
				}
				for _, x := range nw.Graph().Neighbors(u) {
					if x != u && x != v {
						w = x
						return true
					}
				}
				return false
			})
			nw.Graph().RemoveEdge(u, v)
			nw.Graph().AddEdge(u, w)
			return []NodeID{u, v, w}
		}},
		{"self-loop-cell-removed", false, false, "distinct real neighbors", func(t *testing.T, nw *Network) []NodeID {
			// The whole self cell goes, not one unit of it: the non-self
			// cells still account for the whole expected row.
			u := nodeWith(t, nw, func(u NodeID) bool { return nw.Graph().Multiplicity(u, u) >= 2 })
			nw.Graph().RemoveEdgeMult(u, u, nw.Graph().Multiplicity(u, u))
			return []NodeID{u}
		}},
		{"mirror-slot-of-another-node", false, false, "missing from sampling mirror", func(t *testing.T, nw *Network) []NodeID {
			nodes := nw.Nodes()
			u, v := nodes[1], nodes[2]
			nw.st.nodeList[nw.st.mirrorPosAt(nw.st.slot(u))].slot = nw.st.slot(v)
			return []NodeID{u}
		}},
		{"mirror-slot-free", false, false, "missing from sampling mirror", func(t *testing.T, nw *Network) []NodeID {
			free := int32(-1)
			for s := int32(0); s < int32(nw.Graph().Slots()); s++ {
				if _, ok := nw.Graph().NodeAt(s); !ok {
					free = s
					break
				}
			}
			if free < 0 {
				t.Fatal("churn left no free slot")
			}
			u := nw.Nodes()[1]
			nw.st.nodeList[nw.st.mirrorPosAt(nw.st.slot(u))].slot = free
			return []NodeID{u}
		}},
		{"stale-sim-slot", false, true, "simSlot[", func(t *testing.T, nw *Network) []NodeID {
			// One vertex of u names v's slot: derived rows would hand v's
			// slot out as u's, and moves would mark v dirty for u.
			u, v := nw.st.nodeList[1], nw.st.nodeList[2]
			nw.simSlot[nw.st.setAt(u.slot, false)[0]] = v.slot
			return []NodeID{u.id}
		}},
		{"two-corrupted-dirty-nodes", false, false, "load(", func(t *testing.T, nw *Network) []NodeID {
			nodes := nw.Nodes()
			a, b := nodes[len(nodes)-1], nodes[0] // dirtyList order against id order
			nw.st.corruptLoad(a, 1)
			nw.st.corruptLoad(b, -1)
			return []NodeID{a, b}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var nw *Network
			if tc.stagger {
				nw = midRebuildEngine(t)
			} else {
				nw = mustNew(t, 64, DefaultConfig())
				churnQuiet(t, nw, 100)
			}
			if !tc.derived {
				nw.Graph() // a kept view holds the rows the node checks compare
			} else if nw.viewKept {
				t.Fatal("the churned network keeps a view: the case would not run on derived reads")
			}
			if err := checkEveryNode(nw); err != nil {
				t.Fatalf("healthy network fails the node check: %v", err)
			}
			bad := tc.corrupt(t, nw)
			// The warm pass reads every entry's cells behind the checks'
			// guards, corrupted entries included, and must not panic.
			nw.warmAudit(nw.st.nodeList)
			for _, u := range bad {
				err := nw.CheckNode(u)
				if err == nil {
					t.Errorf("CheckNode(%d) missed the corruption", u)
					continue
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("CheckNode(%d) = %v, want an error about %q", u, err, tc.want)
				}
				// A sampled check takes u's slot from its mirror entry
				// instead of the slot table; it must report the same.
				for _, e := range nw.st.nodeList {
					if e.id == u {
						if got := nw.checkNodeAt(e.id, e.slot); got == nil || got.Error() != err.Error() {
							t.Errorf("check of mirror entry %v = %v, want CheckNode's %v", e, got, err)
						}
					}
				}
				auditDirty(t, nw, u)
			}
			if err := nw.Audit(AuditFull); err == nil {
				t.Error("the full audit missed the corruption")
			}
			auditDirty(t, nw, bad...)
			slices.Reverse(bad)
			auditDirty(t, nw, bad...)
		})
	}
}

// TestRowMatchTakesFastPath runs wantRow and the sort-free row match
// on every live node of three healthy networks, their views
// materialized: a churned Staggered one, one paused mid-rebuild (NewSim
// holdings and pending intermediate edges in the rows), and a
// Simplified one just past a one-step rebuild. Every node must match,
// so no check of a healthy network reaches rowMismatch, the sorting
// path.
func TestRowMatchTakesFastPath(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   func(t *testing.T) *Network
	}{
		{"staggered-churned", func(t *testing.T) *Network {
			nw := mustNew(t, 64, DefaultConfig())
			churnQuiet(t, nw, 100)
			return nw
		}},
		{"mid-rebuild", midRebuildEngine},
		{"simplified-past-rebuild", pastOneStepRebuild},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := tc.nw(t)
			nw.Graph()
			for _, e := range nw.st.nodeList {
				row, loops, same := nw.wantRow(e.id, e.slot)
				if same%2 != 0 {
					t.Fatalf("node %d: odd self-incidence count %d", e.id, same)
				}
				loops += same / 2
				if !nw.rowMatches(e.id, e.slot, row, loops) {
					t.Errorf("node %d: the row match fails on a healthy network: %v", e.id, nw.rowMismatch(e.id, e.slot, row, loops))
				}
			}
		})
	}
}

// auditDirty marks exactly dirty as the last step's dirty nodes, in
// order, and requires the sampled audit to fail with the error CheckNode
// reports for the first of them.
func auditDirty(t *testing.T, nw *Network, dirty ...NodeID) {
	t.Helper()
	nw.st.resetDirty()
	for _, u := range dirty {
		nw.st.markDirtyAt(u, nw.st.slot(u))
	}
	want := nw.CheckNode(dirty[0])
	got := nw.Audit(AuditSampled)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Errorf("Audit with dirty nodes %v = %v, want CheckNode(%d)'s %v", dirty, got, dirty[0], want)
	}
}

// midRebuildEngine returns the compatibility script's Staggered network
// paused mid-rebuild, checked to hold pending intermediate edges and
// NewSim holdings, so the audit's stagger branches have state to read.
func midRebuildEngine(t *testing.T) *Network {
	t.Helper()
	nw := compatEngine(t, Staggered, 898)
	if nw.stag == nil || len(nw.stag.pending) == 0 ||
		!slices.ContainsFunc(nw.st.nodeList, func(e mirrorEntry) bool { return nw.st.setLenAt(e.slot, true) > 0 }) {
		t.Fatal("the script no longer pauses a rebuild with pending intermediate edges and NewSim holdings")
	}
	return nw
}

// nodeWith returns the smallest live node satisfying ok.
func nodeWith(t *testing.T, nw *Network, ok func(u NodeID) bool) NodeID {
	t.Helper()
	for _, u := range nw.Nodes() {
		if ok(u) {
			return u
		}
	}
	t.Fatal("no node qualifies")
	return 0
}

// edgeWith returns the first real edge {u,v}, in node then neighbor
// order, satisfying ok.
func edgeWith(t *testing.T, nw *Network, ok func(u, v NodeID) bool) (NodeID, NodeID) {
	t.Helper()
	for _, u := range nw.Nodes() {
		for _, v := range nw.Graph().Neighbors(u) {
			if ok(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("no edge qualifies")
	return 0, 0
}

// nonNeighbor returns the smallest live node other than w not adjacent
// to w.
func nonNeighbor(t *testing.T, nw *Network, w NodeID) NodeID {
	t.Helper()
	return nodeWith(t, nw, func(u NodeID) bool { return u != w && nw.Graph().Multiplicity(u, w) == 0 })
}
