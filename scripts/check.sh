#!/usr/bin/env bash
# Full local gate: configure, build, run every test and every bench binary.
# The CLI gates (exit codes, determinism across thread counts, gated trace
# events) live in scripts/golden.sh, which ctest runs as the `golden` test.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

echo
echo "== fabric spill smoke (spill-to-peer must cut host write-back) =="
"$BUILD"/bench/fabric_scaling --smoke

echo
echo "== adaptive policy smoke (never loses to the worst static by >5%) =="
"$BUILD"/bench/abl_adaptive --smoke

echo
echo "== large-pages smoke (2 MB frames must not hurt TLB hit rate or DMA ops) =="
"$BUILD"/bench/abl_large_pages --smoke

echo
echo "== fault-backend smoke (gpu-driven must cut mean fault stall on BFS/BFR) =="
"$BUILD"/bench/abl_fault_backend --smoke

echo
echo "== fleet serving smoke (headroom/least-loaded must flatten p95 slowdown) =="
"$BUILD"/bench/fleet_serving --smoke

echo
echo "== bench binaries =="
for b in "$BUILD"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue  # skip CMakeFiles/ etc.
  echo "--- $(basename "$b") ---"
  "$b"
done
