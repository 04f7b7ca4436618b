#!/usr/bin/env bash
# Golden digests: run a fixed matrix of uvmsim and uvmsim_sweep scenarios and
# hash each one's exit code, stdout and JSONL trace (or sweep JSON). The
# result must match tests/golden/digests.txt line for line, so any change in
# simulated behaviour or in an output format shows up as a named scenario.
#
# Usage: scripts/golden.sh [--update] [build-dir]
#   (default)  compare with the manifest; list the scenarios that changed and
#              exit 1 on any mismatch
#   --update   rewrite the manifest and list the scenarios that changed
#
# A change that alters behaviour on purpose regenerates the manifest with
# --update; the manifest diff is then part of the reviewed change.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
BUILD="${1:-$ROOT/build}"
MANIFEST="$ROOT/tests/golden/digests.txt"
UVMSIM="$BUILD/tools/uvmsim"
SWEEP="$BUILD/tools/uvmsim_sweep"
for bin in "$UVMSIM" "$SWEEP"; do
  [ -x "$bin" ] || { echo "golden: missing $bin (build first)" >&2; exit 2; }
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
OUT="$TMP/digests.txt"
{
  echo "# Golden digests (scripts/golden.sh). Regenerate with --update."
  echo "# scenario exit-code stdout-sha256/16 trace-or-json-sha256/16"
} > "$OUT"

digest() {
  if [ -f "$1" ]; then sha256sum "$1" | cut -c1-16; else echo "-"; fi
}

# cli <scenario> <traced:0|1> <uvmsim args...>
cli() {
  local name="$1" traced="$2" rc=0
  shift 2
  rm -f "$TMP/trace.jsonl"
  if [ "$traced" = 1 ]; then
    "$UVMSIM" "$@" --trace-out "$TMP/trace.jsonl" > "$TMP/stdout" 2>/dev/null || rc=$?
  else
    "$UVMSIM" "$@" > "$TMP/stdout" 2>/dev/null || rc=$?
  fi
  echo "$name $rc $(digest "$TMP/stdout") $(digest "$TMP/trace.jsonl")" >> "$OUT"
}

# sweep <scenario> <uvmsim_sweep args...>
sweep() {
  local name="$1" rc=0
  shift
  rm -f "$TMP/sweep.json"
  "$SWEEP" "$@" --threads 2 --json "$TMP/sweep.json" > "$TMP/stdout" 2>/dev/null || rc=$?
  echo "$name $rc $(digest "$TMP/stdout") $(digest "$TMP/sweep.json")" >> "$OUT"
}

FIG8="HOT LEU 2DC 3DC BKP PAT DWT KMN SAD NW BFS MVT BIC SRD HSD MRQ STN HWL SGM HIS SPV B+T HYB"
BASELINE="--eviction lru --prefetch locality"

# The paper's Fig 8 matrix: every Table II workload x {0.75, 0.5} x
# {LRU + locality baseline, CPPE (the CLI default)}, traced.
for w in $FIG8; do
  for ov in 0.75 0.5; do
    # shellcheck disable=SC2086
    cli "fig8/$w/$ov/baseline" 1 --workload "$w" --oversub "$ov" $BASELINE
    cli "fig8/$w/$ov/cppe" 1 --workload "$w" --oversub "$ov"
  done
done

# Single-GPU feature runs.
cli single/SRD-0.9-large-pages 1 --workload SRD --oversub 0.9 --large-pages
cli single/BFR-0.5-gpu-driven 1 --workload BFR --oversub 0.5 --fault-backend gpu-driven
cli single/NW-0.5-fault-batch-8 1 --workload NW --oversub 0.5 --fault-batch 8
cli single/NW-0.5-adaptive 1 --workload NW --oversub 0.5 --eviction adaptive --prefetch adaptive
cli single/NW-0.5-trace-events 1 --workload NW --oversub 0.5 \
  --trace-events fault_raised,eviction_chosen
cli single/NW-0.5-sim-stats 0 --workload NW --oversub 0.5 --sim-stats
cli single/NW-0.5-csv 0 --workload NW --oversub 0.5 --csv
cli single/BFR-0.5-gpu-driven-csv 0 --workload BFR --oversub 0.5 --fault-backend gpu-driven --csv

# Multi-GPU fabric runs.
cli fabric/ring2-NW-0.5 1 --workload NW --oversub 0.5 --gpus 2 --fabric ring
cli fabric/ring2-NW-0.5-spill 1 --workload NW --oversub 0.5 --gpus 2 --fabric ring --spill
cli fabric/ring2-NW-0.5-adaptive 1 --workload NW --oversub 0.5 --gpus 2 --fabric ring \
  --eviction adaptive --prefetch adaptive
cli fabric/ring2-NW-0.5-csv 0 --workload NW --oversub 0.5 --gpus 2 --fabric ring --csv
cli fabric/switch4-NW-0.5-sharded 1 --workload NW --oversub 0.5 --gpus 4 --fabric switch \
  --engine sharded --engine-threads 2
cli fabric/switch4-NW-0.5-sharded-sim-stats 0 --workload NW --oversub 0.5 --gpus 4 \
  --fabric switch --engine sharded --engine-threads 2 --sim-stats

# Multi-tenant runs, with solo baselines.
cli tenants/NW,BFS-shared 1 --tenants NW,BFS --oversub 0.5 --tenant-mode shared
cli tenants/NW,BFS-quota 1 --tenants NW,BFS --oversub 0.5 --tenant-mode quota
cli tenants/NW,BFS-quota-adaptive 1 --tenants NW,BFS --oversub 0.5 --tenant-mode quota \
  --eviction adaptive --prefetch adaptive
cli tenants/NW,BFS-quota-csv 0 --tenants NW,BFS --oversub 0.5 --tenant-mode quota --csv
cli tenants/NW,BFS-shared-sim-stats 0 --tenants NW,BFS --oversub 0.5 --sim-stats

# Fleet serving: 100 jobs on 2 GPUs, sequential and sharded engines.
FLEET="--fleet --jobs 100 --gpus 2 --arrival-rate 40 --oversub 0.4"
# shellcheck disable=SC2086
{
  cli fleet/2gpu-seq 1 $FLEET
  cli fleet/2gpu-sharded 1 $FLEET --engine sharded --engine-threads 2
  cli fleet/2gpu-seq-csv 0 $FLEET --csv
  cli fleet/2gpu-sharded-sim-stats 0 $FLEET --engine sharded --engine-threads 2 --sim-stats
}

# Sweep JSON (harness/results_io) over the Fig 8 matrix and one tenant group.
sweep sweep/fig8 --workloads "${FIG8// /,}" --policies baseline,cppe --oversubs 0.75,0.5
sweep sweep/tenants-NW+BFS --tenants NW+BFS --tenant-modes shared,quota --oversubs 0.5 \
  --policies cppe

if [ -f "$MANIFEST" ] && cmp -s "$MANIFEST" "$OUT"; then
  echo "golden: $(grep -vc '^#' "$OUT") scenarios match $MANIFEST"
  exit 0
fi

if [ -f "$MANIFEST" ]; then
  awk '/^#/ { next }
       NR == FNR { old[$1] = $0; next }
       { seen[$1] = 1
         if (!($1 in old)) print "added:   " $1
         else if (old[$1] != $0) print "changed: " $1 }
       END { for (n in old) if (!(n in seen)) print "removed: " n }' \
    "$MANIFEST" "$OUT"
else
  echo "golden: no manifest at $MANIFEST"
fi

if [ "$UPDATE" = 1 ]; then
  mkdir -p "$(dirname "$MANIFEST")"
  cp "$OUT" "$MANIFEST"
  echo "golden: wrote $MANIFEST"
  exit 0
fi
echo "golden: digests differ (rerun with --update if the change is intended)" >&2
exit 1
