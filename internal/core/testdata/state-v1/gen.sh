#!/usr/bin/env bash
# Regenerates the version-1 engine checkpoints in this directory: the
# compatibility script (../../compat_script_test.go) run serially to
# op 898 in Staggered mode, mid-rebuild, and to op 1000 in Simplified
# mode. Version 1 stored the overlay's edges; commit 3d55099 is the last
# engine that wrote it. This script exports that commit into a
# temporary directory, adds a small writer test, and runs it:
#
#   bash internal/core/testdata/state-v1/gen.sh
#
# checkpoint_compat_test.go restores both files; their SHA-256s are the
# golden hashes that commit pinned.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(git -C "$here" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

git -C "$root" archive 3d55099 | tar -x -C "$tmp"
cat > "$tmp/internal/core/zz_write_v1_test.go" <<'EOT'
package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var v1Out = flag.String("out", "", "output directory")

func TestWriteStateV1(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode RecoveryMode
		ops  int
	}{{"staggered-mid-rebuild", Staggered, 898}, {"simplified", Simplified, 1000}} {
		data := encodeState(t, compatEngine(t, tc.mode, tc.ops))
		if err := os.WriteFile(filepath.Join(*v1Out, tc.name+".state"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
EOT
(cd "$tmp" && go test ./internal/core -run '^TestWriteStateV1$' -count 1 -args -out "$here")
