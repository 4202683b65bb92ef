#!/usr/bin/env bash
# Regenerates the version-1 graph encodings in this directory:
# straddleGraph (../../codec_test.go) for seeds 1 and 2, whose ids lie
# both on and off the dense id->slot path. Version 1 carried every
# distinct edge; commit 3d55099 is the last encoder that wrote it. This
# script exports that commit into a temporary directory, adds a small
# writer test, and runs it:
#
#   bash internal/graph/testdata/codec-v1/gen.sh
#
# codec_test.go decodes both files; their SHA-256s are the golden hashes
# that commit pinned.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(git -C "$here" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

git -C "$root" archive 3d55099 | tar -x -C "$tmp"
cat > "$tmp/internal/graph/zz_write_v1_test.go" <<'EOT'
package graph

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

var v1Out = flag.String("out", "", "output directory")

func TestWriteCodecV1(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		enc := wire.NewEncoder(nil)
		straddleGraph(t, seed).AppendBinary(enc)
		name := filepath.Join(*v1Out, fmt.Sprintf("straddle-%d.graph", seed))
		if err := os.WriteFile(name, enc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
EOT
(cd "$tmp" && go test ./internal/graph -run '^TestWriteCodecV1$' -count 1 -args -out "$here")
