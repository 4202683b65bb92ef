package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/primes"
	"repro/internal/wire"
)

// encodeState serializes nw, failing the test on error.
func encodeState(t *testing.T, nw *Network) []byte {
	t.Helper()
	enc := wire.NewEncoder(nil)
	if err := nw.AppendState(enc); err != nil {
		t.Fatalf("AppendState: %v", err)
	}
	return append([]byte(nil), enc.Bytes()...)
}

// restoreState decodes a snapshot, failing the test on error.
func restoreState(t *testing.T, data []byte) *Network {
	t.Helper()
	nw, err := RestoreNetwork(wire.NewDecoder(data))
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	return nw
}

// requireSameState compares everything observable between two engines.
func requireSameState(t *testing.T, tag string, a, b *Network) {
	t.Helper()
	if a.P() != b.P() {
		t.Fatalf("%s: P %d != %d", tag, a.P(), b.P())
	}
	if a.Size() != b.Size() {
		t.Fatalf("%s: size %d != %d", tag, a.Size(), b.Size())
	}
	if !reflect.DeepEqual(a.simOf, b.simOf) {
		t.Fatalf("%s: mappings differ", tag)
	}
	if !reflect.DeepEqual(a.st.nodeList, b.st.nodeList) {
		t.Fatalf("%s: sampling mirrors differ", tag)
	}
	if !reflect.DeepEqual(a.st.loadSnapshot(), b.st.loadSnapshot()) {
		t.Fatalf("%s: loads differ", tag)
	}
	if !reflect.DeepEqual(a.st.simSnapshot(), b.st.simSnapshot()) {
		t.Fatalf("%s: sim sets differ", tag)
	}
	if !reflect.DeepEqual(a.History(), b.History()) {
		t.Fatalf("%s: histories differ", tag)
	}
	if a.Totals() != b.Totals() {
		t.Fatalf("%s: totals differ:\n%+v\n%+v", tag, a.Totals(), b.Totals())
	}
	if err := graphsEqual(a.Graph(), b.Graph()); err != nil {
		t.Fatalf("%s: overlays differ: %v", tag, err)
	}
	// The slot table and the epoch must match exactly, not just the
	// overlay's content: slots address the columnar store.
	if a.Graph().Slots() != b.Graph().Slots() {
		t.Fatalf("%s: slot tables of %d and %d slots", tag, a.Graph().Slots(), b.Graph().Slots())
	}
	for s := int32(0); s < int32(a.Graph().Slots()); s++ {
		au, aok := a.Graph().NodeAt(s)
		bu, bok := b.Graph().NodeAt(s)
		if au != bu || aok != bok {
			t.Fatalf("%s: slot %d holds (%d, live %v) and (%d, live %v)", tag, s, au, aok, bu, bok)
		}
	}
	if a.Graph().Epoch() != b.Graph().Epoch() {
		t.Fatalf("%s: overlay epochs %d != %d", tag, a.Graph().Epoch(), b.Graph().Epoch())
	}
	if a.nSpare != b.nSpare || a.nLow != b.nLow {
		t.Fatalf("%s: counters (%d,%d) != (%d,%d)", tag, a.nSpare, a.nLow, b.nSpare, b.nLow)
	}
	aAct, aPh := a.Rebuilding()
	bAct, bPh := b.Rebuilding()
	if aAct != bAct || aPh != bPh {
		t.Fatalf("%s: rebuild state (%v,%d) != (%v,%d)", tag, aAct, aPh, bAct, bPh)
	}
}

// churnBoth applies an identical adversarial schedule to both engines,
// requiring byte-identical outcomes after every step.
func churnBoth(t *testing.T, a, b *Network, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			id := a.FreshID()
			if got := b.FreshID(); got != id {
				t.Fatalf("step %d: fresh ids diverge: %d vs %d", i, id, got)
			}
			attach := a.SampleNode(rand.New(rand.NewSource(int64(i) ^ seed)))
			if err := a.Insert(id, attach); err != nil {
				t.Fatalf("step %d: insert a: %v", i, err)
			}
			if err := b.Insert(id, attach); err != nil {
				t.Fatalf("step %d: insert b: %v", i, err)
			}
		case 2:
			victim := a.SampleNode(rand.New(rand.NewSource(int64(i) ^ seed)))
			errA := a.Delete(victim)
			errB := b.Delete(victim)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: delete diverges: %v vs %v", i, errA, errB)
			}
		default:
			id := a.FreshID()
			b.FreshID()
			attach := a.SampleNode(rand.New(rand.NewSource(int64(i) ^ seed)))
			specs := []InsertSpec{{ID: id, Attach: attach}, {ID: id + 1_000_000, Attach: attach}}
			if err := a.InsertBatch(specs); err != nil {
				t.Fatalf("step %d: batch a: %v", i, err)
			}
			if err := b.InsertBatch(specs); err != nil {
				t.Fatalf("step %d: batch b: %v", i, err)
			}
		}
		if a.LastStep() != b.LastStep() {
			t.Fatalf("step %d: metrics diverge:\n%+v\n%+v", i, a.LastStep(), b.LastStep())
		}
	}
	requireSameState(t, "after continuation churn", a, b)
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("original invariants: %v", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}
	if err := graphsEqual(b.Graph(), b.RecomputeGraph()); err != nil {
		t.Fatalf("restored engine diverged from its rebuilt overlay: %v", err)
	}
}

// snapshotCase is one seed of a snapshot round-trip test. The labels
// (w1, w4, ...) date from when these cases ran one seed at several
// walk-worker widths; with a single serial path they vary the seed
// instead, and keep their labels so the case names stay stable.
type snapshotCase struct {
	label string
	seed  int64
}

func TestSnapshotRoundTripSteady(t *testing.T) {
	for _, mode := range []RecoveryMode{Simplified, Staggered} {
		for _, sc := range []snapshotCase{{"w1", 42}, {"w4", 45}, {"w8", 49}} {
			t.Run(fmt.Sprintf("%v/%s", mode, sc.label), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.Seed = sc.seed
				nw, err := New(64, cfg)
				if err != nil {
					t.Fatal(err)
				}
				snapChurn(t, nw, 7, 300)

				data := encodeState(t, nw)
				re := restoreState(t, data)
				requireSameState(t, "immediately after restore", nw, re)
				if !bytes.Equal(encodeState(t, re), data) {
					t.Fatal("restored engine re-encodes differently")
				}
				churnBoth(t, nw, re, 99, 300)
			})
		}
	}
}

// churn drives one engine with simple random churn.
func snapChurn(t *testing.T, nw *Network, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		if rng.Intn(2) == 0 || nw.Size() <= 8 {
			if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
				t.Fatalf("churn insert: %v", err)
			}
		} else if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatalf("churn delete: %v", err)
		}
	}
}

// TestSnapshotRoundTripMidStagger snapshots while a staggered rebuild is
// in flight — in both phases — and requires the restored engine to drive
// the rebuild to the same commit.
func TestSnapshotRoundTripMidStagger(t *testing.T) {
	for _, sc := range []snapshotCase{{"w1", 11}, {"w4", 14}} {
		t.Run(sc.label, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = sc.seed
			nw, err := New(64, cfg)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(5))
			snapshots := 0
			for i := 0; i < 4000 && snapshots < 4; i++ {
				if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
					t.Fatal(err)
				}
				active, phase := nw.Rebuilding()
				if !active {
					continue
				}
				// Snapshot once per phase per rebuild encountered.
				if (phase == 1 && snapshots%2 == 0) || (phase == 2 && snapshots%2 == 1) {
					snapshots++
					data := encodeState(t, nw)
					re := restoreState(t, data)
					requireSameState(t, fmt.Sprintf("mid-stagger phase %d", phase), nw, re)
					if !bytes.Equal(encodeState(t, re), data) {
						t.Fatalf("mid-stagger phase %d: restored engine re-encodes differently", phase)
					}
					// Drive both to the rebuild commit and beyond.
					churnBoth(t, nw, re, int64(1000+i), 200)
				}
			}
			if snapshots < 2 {
				t.Fatalf("only %d mid-stagger snapshots taken; rebuild never engaged?", snapshots)
			}
		})
	}
}

// TestSnapshotRejectsOracleAndForeignRNG checks that an engine whose
// RNG was swapped via SetRNG refuses to checkpoint. (It also covered the
// map-backed oracle store until the store had one representation; the
// name is kept so the test ID stays stable.)
func TestSnapshotRejectsOracleAndForeignRNG(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	nw.SetRNG(rand.New(rand.NewSource(7)))
	if err := nw.AppendState(wire.NewEncoder(nil)); err == nil {
		t.Fatal("AppendState accepted a replaced RNG")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	nw, err := New(32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapChurn(t, nw, 9, 100)
	data := encodeState(t, nw)
	stride := len(data)/97 + 1
	for cut := 0; cut < len(data); cut += stride {
		if _, err := RestoreNetwork(wire.NewDecoder(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}

// TestRestoreRejectsHostileModulus: a modulus the input is too short to
// hold cannot be a checkpoint's, because the mapping that follows takes
// at least a byte per vertex. Both the cycle's p and a rebuild's pNew
// must be refused before pcycle.New allocates a table of p inverses
// (8 bytes each) for them.
func TestRestoreRejectsHostileModulus(t *testing.T) {
	const hostile = 10_000_019 // pcycle.New would take 80 MB for it
	if !primes.IsPrime(hostile) {
		t.Fatalf("%d is not prime: pcycle.New would refuse it without allocating", hostile)
	}
	// A header naming p = hostile, complete up to the overlay section.
	cfg := DefaultConfig()
	head := wire.NewEncoder(nil)
	head.Uvarint(stateVersion)
	head.Varint(int64(cfg.Zeta))
	head.F64(cfg.Theta)
	head.Varint(int64(cfg.WalkFactor))
	head.Varint(int64(cfg.WalkRetryLimit))
	head.Uvarint(uint64(cfg.Mode))
	head.Varint(cfg.Seed)
	head.Varint(0) // reserved: worker count
	head.Varint(int64(cfg.HistoryCap))
	head.Varint(hostile)
	head.Varint(0) // next id
	head.Varint(0) // orphan rescues
	head.Varint(0) // walk exhaustion
	appendTotals(head, &Totals{})
	head.Uvarint(0) // history
	head.U64(0)     // RNG draws
	head.Uvarint(0) // reserved: seeds drawn ahead

	// A real steady state whose stagger flag is flipped on, followed by
	// an inflation to pNew = hostile and nothing else.
	data := encodeState(t, mustNew(t, 16, cfg))
	if data[len(data)-1] != 0 {
		t.Fatal("a steady engine's state does not end with an absent stagger")
	}
	stag := wire.NewEncoder(append([]byte(nil), data[:len(data)-1]...))
	stag.Bool(true)
	stag.Uvarint(uint64(inflateDir))
	stag.Varint(hostile)
	stag.Uvarint(1) // phase
	stag.Varint(0)  // frontier
	stag.Varint(1)  // batch

	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"p", head.Bytes(), "mapping length"},
		{"pNew", stag.Bytes(), "new mapping length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RestoreNetwork(wire.NewDecoder(tc.data))
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("restoring a %d-byte input allocated %d bytes, want < 1 MB", len(tc.data), got)
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RestoreNetwork error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRestoreRejectsDerivedEdgeToAbsentNode: a restore derives the
// overlay's edges, never its nodes. Here a rebuild's first ungenerated
// new vertex is generated by an old vertex marked dropped whose stale
// owner no slot holds, so the intermediate edge that lands on it would
// need a new node; the restore must refuse the state instead.
func TestRestoreRejectsDerivedEdgeToAbsentNode(t *testing.T) {
	nw := midRebuildEngine(t)
	s := nw.stag
	y := slices.Index(s.newSimOf, -1)
	if y < 1 || s.newSimOf[y-1] < 0 {
		t.Fatal("want a generated new vertex whose successor is not generated")
	}
	x := s.ownerOld(Vertex(y))
	s.droppedFlag[x] = true
	nw.simOf[x] = nw.nextID + 1
	_, err := RestoreNetwork(wire.NewDecoder(encodeState(t, nw)))
	if err == nil || !strings.Contains(err.Error(), "slot table lacks") {
		t.Fatalf("RestoreNetwork error %v, want one naming a node the slot table lacks", err)
	}
}
