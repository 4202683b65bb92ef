#!/usr/bin/env bash
# Regenerates ckpt.state in this directory: the engine checkpoint of a
# four-worker Staggered network, taken mid-rebuild while its walk-seed
# FIFO held seeds drawn ahead for a parallel retry window. Worker pools
# and that FIFO were deleted after commit 6660b5d, so only the engine at
# that commit can write such a checkpoint. This script exports that
# commit into a temporary directory, adds the compatibility churn script
# (../../compat_script_test.go) and a small writer test, and runs it:
#
#   bash internal/core/testdata/legacy-pending-seeds/gen.sh
#
# checkpoint_compat_test.go restores the file and continues the script.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(git -C "$here" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

git -C "$root" archive 6660b5d | tar -x -C "$tmp"
cp "$root/internal/core/compat_script_test.go" "$tmp/internal/core/"
cat > "$tmp/internal/core/zz_write_legacy_test.go" <<'EOF'
package core

import (
	"flag"
	"os"
	"testing"

	"repro/internal/wire"
)

var legacyOut = flag.String("out", "", "checkpoint output path")

// TestWriteLegacyPendingSeeds runs the compatibility script on a
// four-worker Staggered engine and checkpoints it after the first op
// that leaves pre-drawn seeds pending while a rebuild is in flight.
func TestWriteLegacyPendingSeeds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Staggered
	cfg.Seed = compatSeed
	cfg.Workers = 4
	nw, err := New(compatN0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for i := 0; i < 2*compatWave; i++ {
		if err := compatOp(nw, i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if active, _ := nw.Rebuilding(); !active || len(nw.seedQ) == nw.seedHead {
			continue
		}
		enc := wire.NewEncoder(nil)
		if err := nw.AppendState(enc); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(*legacyOut, enc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("checkpointed after op %d: %d seeds pending, %d drawn", i, len(nw.seedQ)-nw.seedHead, nw.rngDraws)
		return
	}
	t.Fatal("no op left seeds pending mid-rebuild")
}
EOF
(cd "$tmp" && go test ./internal/core -run '^TestWriteLegacyPendingSeeds$' -count 1 -v -args -out "$here/ckpt.state")
