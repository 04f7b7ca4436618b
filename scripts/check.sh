#!/usr/bin/env bash
# Full local gate: configure, build, run every test and every bench binary.
# The CLI gates (exit codes, determinism across thread counts, gated trace
# events) live in scripts/golden.sh, which ctest runs as the `golden` test;
# the benches' --smoke gates are ctest tests too (label `smoke`).
# Usage: scripts/check.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

# One run per bench source: a build tree can still hold the binary of a
# retired bench, which must not run.
echo
echo "== bench binaries =="
for src in bench/*.cpp; do
  b="$(basename "$src" .cpp)"
  echo "--- $b ---"
  "$BUILD/bench/$b"
done
