#!/usr/bin/env bash
# lint_smoke.sh — prove the cachemindlint CI wiring can actually fail.
#
# `go vet -vettool=` silently passes when the tool path is wrong, the
# driver protocol drifts, or an analyzer regresses to a no-op over real
# package units (the linttest fixtures run the analyzers in-process, not
# through the vet protocol). This smoke test closes that gap: it builds
# the vettool, points it at a scratch module containing one deliberate
# violation per analyzer category that needs no repo context, and
# asserts the nonzero exit AND the expected analyzer names in the
# output. Run by `make lint-smoke` (part of `make ci`).
set -euo pipefail

cd "$(dirname "$0")/.."
repo_root=$(pwd)

go build -o bin/cachemindlint ./cmd/cachemindlint

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/go.mod" <<'EOF'
module lintsmoke

go 1.21
EOF

cat > "$tmp/bad.go" <<'EOF'
// Package lintsmoke is a deliberately broken unit: every construct
// below must be flagged by cachemindlint, or the smoke test fails.
//
//cachemind:deterministic
package lintsmoke

import (
	"context"
	"time"
)

func clock() time.Time {
	return time.Now()
}

func sever(ctx context.Context) error {
	return context.Background().Err()
}
EOF

out_file="$tmp/vet.out"
set +e
(cd "$tmp" && go vet -vettool="$repo_root/bin/cachemindlint" .) >"$out_file" 2>&1
status=$?
set -e

echo "--- go vet output (exit $status) ---"
cat "$out_file"
echo "------------------------------------"

if [ "$status" -eq 0 ]; then
    echo "FAIL: go vet -vettool=cachemindlint exited 0 on a known-bad file" >&2
    exit 1
fi

for pass in determinism ctxflow; do
    if ! grep -q "\[$pass\]" "$out_file"; then
        echo "FAIL: expected a [$pass] diagnostic in the vet output" >&2
        exit 1
    fi
done

echo "OK: cachemindlint fails known-bad code through go vet (exit $status)"
