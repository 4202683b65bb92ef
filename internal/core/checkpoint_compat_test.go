package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/wire"
)

// These tests pin the engine checkpoint format (stateVersion 2) and the
// reading of version 1. Each fails if the bytes AppendState writes, or
// the way RestoreNetwork reads older bytes, drift.

// legacyFixture is a checkpoint written by a four-worker engine while
// seeds it had drawn ahead were still pending; gen.sh beside it says
// how it was made.
const legacyFixture = "testdata/legacy-pending-seeds/ckpt.state"

// v1Fixtures are version-1 checkpoints of the compatibility script,
// which stored the overlay's edges; gen.sh beside them says how they
// were made. want is each file's SHA-256, the golden hash the last
// version-1 encoder was pinned to.
var v1Fixtures = []struct {
	name string
	mode RecoveryMode
	ops  int
	want string
}{
	{"staggered-mid-rebuild", Staggered, 898, "5160f5c2adea5d0689408f19fb5cc243e09d6d341d732b4ebbb665f5971341a4"},
	{"simplified", Simplified, 1000, "9a94318a4563f88690ada57e5af3281d73fbe839ff33999b54590f8a30833080"},
}

// readV1Fixture reads one version-1 fixture and checks its hash.
func readV1Fixture(t *testing.T, name, want string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/state-v1/" + name + ".state")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s: fixture SHA-256 %s, want %s", name, got, want)
	}
	return data
}

// compatEngine returns a serial engine that has run the first ops ops
// of the compatibility script.
func compatEngine(t *testing.T, mode RecoveryMode, ops int) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Seed = compatSeed
	nw := mustNew(t, compatN0, cfg)
	for i := 0; i < ops; i++ {
		if err := compatOp(nw, i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return nw
}

// TestCheckpointGoldenHash pins the SHA-256 of AppendState's bytes for
// a seeded serial engine at two points of the compatibility script:
// Staggered mid-rebuild, so the in-flight rebuild is serialized too,
// and Simplified after two inflations and a deflation. The states are
// the ones the committed version-1 fixtures hold, which
// TestRestoreStateV1 proves restore to the same engines.
func TestCheckpointGoldenHash(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  RecoveryMode
		ops   int
		phase int // rebuild phase in flight after the last op, 0 = none
		want  string
	}{
		{"staggered-mid-rebuild", Staggered, 898, 1, "8ee4439fc3f4a69025fb753bd885281d3cee491fc269a7ad932afbf8ab5db9a8"},
		{"simplified", Simplified, 1000, 0, "df8fbbf6a4cb85bfb971f560373805c3781bbfb42fde6a3ac24a72f8beaa018a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := compatEngine(t, tc.mode, tc.ops)
			if _, phase := nw.Rebuilding(); phase != tc.phase {
				t.Fatalf("rebuild phase %d after %d ops, want %d: the script no longer reaches the pinned state", phase, tc.ops, tc.phase)
			}
			sum := sha256.Sum256(encodeState(t, nw))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("checkpoint SHA-256 %s, want %s: the format or the serial engine changed", got, tc.want)
			}
		})
	}
}

// TestRestoreStateV1 restores each version-1 fixture, which checks its
// stored edges against the derived contraction, and requires the
// engine that the script reaches at the same op: the same state, and
// the same version-2 checkpoint when re-encoded.
func TestRestoreStateV1(t *testing.T) {
	for _, fx := range v1Fixtures {
		t.Run(fx.name, func(t *testing.T) {
			re := restoreState(t, readV1Fixture(t, fx.name, fx.want))
			oracle := compatEngine(t, fx.mode, fx.ops)
			requireSameState(t, "at the restore point", oracle, re)
			if !bytes.Equal(encodeState(t, oracle), encodeState(t, re)) {
				t.Fatal("restored engine re-encodes differently from the script's engine")
			}
		})
	}
}

// v1EdgeMults returns the offsets of the stored edge multiplicities in
// a version-1 checkpoint, walking the graph section that follows the
// RNG fields: codec version, slot table, free-slot stack, edge count,
// then each edge as two endpoint varints and a multiplicity.
func v1EdgeMults(t *testing.T, data []byte) []int {
	t.Helper()
	_, _, k, seedsOff := pendingSeeds(t, data)
	dec := wire.NewDecoder(data[seedsOff+8*int(k):])
	if v := dec.Uvarint(); v != 1 {
		t.Fatalf("graph section version %d, want 1", v)
	}
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		dec.Varint()
		dec.Bool()
	}
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		dec.Uvarint()
	}
	var offs []int
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		dec.Varint()
		dec.Varint()
		offs = append(offs, len(data)-dec.Remaining())
		dec.Uvarint()
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("graph section: %v", err)
	}
	return offs
}

// TestRestoreRejectsTamperedV1Edge: a version-1 checkpoint whose stored
// overlay is not the contraction of its mapping is refused. Raising one
// stored multiplicity by one keeps the overlay symmetric and valid as a
// graph, so only the comparison with the derived contraction catches it.
func TestRestoreRejectsTamperedV1Edge(t *testing.T) {
	for _, fx := range v1Fixtures {
		t.Run(fx.name, func(t *testing.T) {
			data := readV1Fixture(t, fx.name, fx.want)
			offs := v1EdgeMults(t, data)
			if len(offs) == 0 {
				t.Fatal("fixture stores no edges")
			}
			b := bytes.Clone(data)
			off := offs[len(offs)/2]
			if b[off] < 1 || b[off] > 3 {
				t.Fatalf("multiplicity byte %d at %d, want 1..3", b[off], off)
			}
			b[off]++
			_, err := RestoreNetwork(wire.NewDecoder(b))
			if err == nil || !strings.Contains(err.Error(), "not the contraction") {
				t.Fatalf("RestoreNetwork error %v, want one naming the contraction", err)
			}
		})
	}
}

// pendingSeeds locates the RNG fields of a checkpoint: the offset of
// rngDraws, its value, the pending-seed count k, and the offset of the
// first pending seed. It walks the fields AppendState writes before
// them.
func pendingSeeds(t *testing.T, data []byte) (drawsOff int, draws, k uint64, seedsOff int) {
	t.Helper()
	dec := wire.NewDecoder(data)
	dec.Uvarint() // version
	dec.Varint()  // zeta
	dec.F64()     // theta
	dec.Varint()  // walk factor
	dec.Varint()  // walk retry limit
	dec.Uvarint() // mode
	dec.Varint()  // seed
	dec.Varint()  // reserved worker count
	dec.Varint()  // history cap
	dec.Varint()  // p
	dec.Varint()  // next id
	dec.Varint()  // orphan rescues
	dec.Varint()  // walk exhaustion
	decodeTotals(dec)
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		var m StepMetrics
		m.DecodeBinary(dec)
	}
	drawsOff = len(data) - dec.Remaining()
	draws = dec.U64()
	k = dec.Uvarint()
	seedsOff = len(data) - dec.Remaining()
	if err := dec.Err(); err != nil {
		t.Fatalf("checkpoint header: %v", err)
	}
	return drawsOff, draws, k, seedsOff
}

// TestRestoreLegacyPendingSeeds restores the legacy fixture, whose
// engine had drawn seeds ahead for a parallel retry window, and
// continues the script on it. Worker width never changed outcomes, so
// a serial run of the same script from scratch is the oracle: the two
// must agree in History, mapping, and overlay at the restore point and
// after every later op, and must then write identical checkpoints.
func TestRestoreLegacyPendingSeeds(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, draws, k, _ := pendingSeeds(t, data); k == 0 || k > draws {
		t.Fatalf("fixture holds %d pending seeds over %d draws; want some", k, draws)
	}
	re := restoreState(t, data)
	if active, _ := re.Rebuilding(); !active {
		t.Fatal("fixture was not taken mid-rebuild")
	}
	at := len(re.History()) // every script op records one step
	oracle := compatEngine(t, Staggered, at)
	requireSameState(t, "at the restore point", oracle, re)
	if !bytes.Equal(encodeState(t, oracle), encodeState(t, re)) {
		t.Fatal("restored engine re-encodes differently from the serial oracle")
	}
	for i := at; i < at+2*compatWave; i++ {
		if err := compatOp(oracle, i); err != nil {
			t.Fatalf("op %d on the oracle: %v", i, err)
		}
		if err := compatOp(re, i); err != nil {
			t.Fatalf("op %d on the restored engine: %v", i, err)
		}
		if oracle.LastStep() != re.LastStep() {
			t.Fatalf("op %d: metrics diverged:\noracle:   %+v\nrestored: %+v", i, oracle.LastStep(), re.LastStep())
		}
	}
	equalEngineState(t, "after the continued script", oracle, re)
	if !bytes.Equal(encodeState(t, oracle), encodeState(t, re)) {
		t.Fatal("continued engines write different checkpoints")
	}
}

// TestRestoreRejectsTamperedPendingSeeds: pending seeds must be the
// last draws of the stream. A flipped seed, or more pending seeds than
// draws, is refused with an error rather than restored into a run that
// silently diverges.
func TestRestoreRejectsTamperedPendingSeeds(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	drawsOff, _, k, seedsOff := pendingSeeds(t, data)
	for _, tc := range []struct {
		name    string
		tamper  func(b []byte)
		wantErr string
	}{
		{"flipped-seed", func(b []byte) { b[seedsOff+8*int(k/2)] ^= 0x10 }, "does not match the RNG stream"},
		{"more-seeds-than-draws", func(b []byte) { binary.LittleEndian.PutUint64(b[drawsOff:], k-1) }, "exceed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := bytes.Clone(data)
			tc.tamper(b)
			_, err := RestoreNetwork(wire.NewDecoder(b))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RestoreNetwork error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
