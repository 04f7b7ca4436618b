#!/usr/bin/env bash
# Golden digests: run a fixed matrix of uvmsim, uvmsim_sweep, uvmsim_report
# and uvmsim_trace scenarios and hash each one's exit code, stdout and JSONL
# trace (or sweep JSON or CSV). The result must match
# tests/golden/digests.txt line for line, so any change in simulated
# behaviour or in an output format shows up as a named scenario.
#
# Alongside the digests it checks assertions that hold whatever the manifest
# says: malformed or unsupported invocations exit exactly 2, scenario pairs
# that must agree (thread counts, an explicit default flag) hash equal, and
# gated trace events appear where expected and nowhere else.
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
REPORT="$BUILD/tools/uvmsim_report"
TRACE="$BUILD/tools/uvmsim_trace"
for bin in "$UVMSIM" "$SWEEP" "$REPORT" "$TRACE"; do
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

FAILED=()
ASSERTIONS=0
fail() { FAILED+=("$*"); }

# cli <scenario> <traced:0|1> <uvmsim args...>
cli() {
  local name="$1" traced="$2" rc=0
  shift 2
  LAST="$name"
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

# report <scenario> <uvmsim_report args...>: hash the exit code and the
# Markdown report, written to stdout.
report() {
  local name="$1" rc=0
  shift
  "$REPORT" "$@" --out - > "$TMP/stdout" 2>/dev/null || rc=$?
  echo "$name $rc $(digest "$TMP/stdout") -" >> "$OUT"
}

# rejects <scenario> <binary> <args...>: an invocation that must be refused
# with exit code 2 and nothing on stdout.
rejects() {
  local name="$1" bin="$BUILD/tools/$2" rc=0
  shift 2
  "$bin" "$@" > "$TMP/stdout" 2>/dev/null || rc=$?
  ASSERTIONS=$((ASSERTIONS + 1))
  [ "$rc" = 2 ] || fail "$name exited $rc, not 2"
  echo "$name $rc $(digest "$TMP/stdout") -" >> "$OUT"
}

# intervals <scenario> <csv|jsonl> <uvmsim args...>: hash the exit code,
# stdout and --interval-metrics file of an untraced run.
intervals() {
  local name="$1" file="$TMP/intervals.$2" rc=0
  shift 2
  LAST="$name"
  rm -f "$file"
  "$UVMSIM" "$@" --interval-metrics "$file" > "$TMP/stdout" 2>/dev/null || rc=$?
  echo "$name $rc $(digest "$TMP/stdout") $(digest "$file")" >> "$OUT"
}

# same <a> <b>: two scenarios already run must have equal exit code, stdout
# and trace digests. same_stdout compares exit code and stdout alone.
same() {
  local a b
  a="$(awk -v n="$1" '$1 == n { $1 = ""; print }' "$OUT")"
  b="$(awk -v n="$2" '$1 == n { $1 = ""; print }' "$OUT")"
  ASSERTIONS=$((ASSERTIONS + 1))
  [ -n "$a" ] && [ "$a" = "$b" ] || fail "$1 and $2 differ"
}
same_stdout() {
  local a b
  a="$(awk -v n="$1" '$1 == n { print $2, $3 }' "$OUT")"
  b="$(awk -v n="$2" '$1 == n { print $2, $3 }' "$OUT")"
  ASSERTIONS=$((ASSERTIONS + 1))
  [ -n "$a" ] && [ "$a" = "$b" ] || fail "$1 and $2 differ on stdout"
}

# has / lacks <stdout|trace> <regex>: the scenario just run by cli() does or
# does not print / trace a match.
has() {
  ASSERTIONS=$((ASSERTIONS + 1))
  grep -qE "$2" "$(output "$1")" || fail "$LAST: $1 has no match for $2"
}
lacks() {
  ASSERTIONS=$((ASSERTIONS + 1))
  ! grep -qE "$2" "$(output "$1")" || fail "$LAST: $1 matches $2"
}
output() { if [ "$1" = trace ]; then echo "$TMP/trace.jsonl"; else echo "$TMP/stdout"; fi; }

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
has trace '"ev":"coalesce"'
cli single/BFR-0.5-gpu-driven 1 --workload BFR --oversub 0.5 --fault-backend gpu-driven
has trace '"ev":"fault_enqueued"'
has trace '"ev":"gpu_fault_serviced"'
cli single/NW-0.5-fault-batch-8 1 --workload NW --oversub 0.5 --fault-batch 8
cli single/NW-0.5-adaptive 1 --workload NW --oversub 0.5 --eviction adaptive --prefetch adaptive
cli single/NW-0.5-trace-events 1 --workload NW --oversub 0.5 \
  --trace-events fault_raised,eviction_chosen
cli single/NW-0.5-sim-stats 0 --workload NW --oversub 0.5 --sim-stats
cli single/NW-0.5-csv 0 --workload NW --oversub 0.5 --csv
cli single/BFR-0.5-gpu-driven-csv 0 --workload BFR --oversub 0.5 --fault-backend gpu-driven --csv

# Multi-GPU fabric runs.
cli fabric/ring2-NW-0.5 1 --workload NW --oversub 0.5 --gpus 2 --fabric ring
has trace '"dev":'
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
  has trace '"ev":"job_admitted"'
  cli fleet/2gpu-sharded 1 $FLEET --engine sharded --engine-threads 2
  cli fleet/2gpu-seq-csv 0 $FLEET --csv
  cli fleet/2gpu-sharded-sim-stats 0 $FLEET --engine sharded --engine-threads 2 --sim-stats
}

# Sweep JSON (harness/results_io) over the Fig 8 matrix and one tenant group.
# The same runs write the sweep CSVs, hashed at the end of the manifest.
sweep sweep/fig8 --workloads "${FIG8// /,}" --policies baseline,cppe --oversubs 0.75,0.5 \
  --out "$TMP/fig8-out.csv"
sweep sweep/tenants-NW+BFS --tenants NW+BFS --tenant-modes shared,quota --oversubs 0.5 \
  --policies cppe --out "$TMP/tenants-NW+BFS-out.csv" \
  --tenant-out "$TMP/tenants-NW+BFS-tenant-out.csv"

# Explicit default flags and extra outputs change nothing: an explicit
# --fault-backend host and --interval-metrics leave stdout and trace as the
# default CPPE run's, whose trace starts with the schema header, prints no
# clamped-event warning and carries no GPU-backend event.
cli single/NW-0.5-fault-backend-host 1 --workload NW --oversub 0.5 --fault-backend host
has trace '^\{"schema":"uvmsim-trace","v":1\}$'
lacks stdout clamped
lacks trace '"ev":"(fault_enqueued|fault_queue_full|gpu_fault_serviced)"'
same single/NW-0.5-fault-backend-host fig8/NW/0.5/cppe
cli single/NW-0.5-interval-metrics 1 --workload NW --oversub 0.5 \
  --interval-metrics "$TMP/intervals.csv"
same single/NW-0.5-interval-metrics fig8/NW/0.5/cppe

# The sharded engine gives the same stdout and trace on any thread count.
cli fabric/ring4-NW-0.5-sharded-t1 1 --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine sharded --engine-threads 1
cli fabric/ring4-NW-0.5-sharded-t4 1 --workload NW --oversub 0.5 --gpus 4 --fabric ring \
  --engine sharded --engine-threads 4
same fabric/ring4-NW-0.5-sharded-t1 fabric/ring4-NW-0.5-sharded-t4
# shellcheck disable=SC2086
{
  FLEET4="--fleet --jobs 100 --gpus 4 --arrival-rate 50 --oversub 0.4 --engine sharded"
  cli fleet/4gpu-sharded-t1 1 $FLEET4 --engine-threads 1
  has trace '"ev":"job_completed"'
  cli fleet/4gpu-sharded-t5 1 $FLEET4 --engine-threads 5
  same fleet/4gpu-sharded-t1 fleet/4gpu-sharded-t5
}

# Invocations that must exit 2: unsupported engine and run-shape
# combinations, malformed flag values, and unknown names.
for bad in "engine-bogus:--engine bogus" \
           "engine-sharded-tenants:--engine sharded --tenants NW,BFS" \
           "engine-sharded-spill:--engine sharded --gpus 2 --spill" \
           "engine-threads-negative:--engine-threads -1" \
           "trace-gpus2:--trace $TMP/none.trc --gpus 2" \
           "trace-fleet:--trace $TMP/none.trc --fleet" \
           "trace-tenants:--trace $TMP/none.trc --tenants NW,BFS" \
           "record-trace-gpus2:--record-trace $TMP/r.trc --gpus 2" \
           "record-trace-fleet:--record-trace $TMP/r.trc --fleet" \
           "record-trace-tenants:--record-trace $TMP/r.trc --tenants NW,BFS" \
           "interval-metrics-gpus2:--interval-metrics $TMP/iv.csv --gpus 2" \
           "interval-metrics-fleet:--interval-metrics $TMP/iv.csv --fleet" \
           "interval-metrics-tenants:--interval-metrics $TMP/iv.csv --tenants NW,BFS" \
           "tenants-gpus2:--tenants NW,BFS --gpus 2" \
           "tenants-fleet:--tenants NW,BFS --fleet" \
           "tenants-one:--tenants NW" \
           "fault-backend-bogus:--fault-backend bogus" \
           "fault-latency-zero:--fault-latency-us 0" \
           "evict-service-negative:--evict-service-us -1" \
           "gpu-fault-queue-depth-zero:--gpu-fault-queue-depth 0" \
           "deletion-bogus:--deletion bogus" \
           "gpus-abc:--gpus abc" \
           "oversub-abc:--oversub abc" \
           "sms-zero:--sms 0" \
           "seed-xyz:--seed xyz" \
           "remote-threshold-negative:--gpus 2 --remote-threshold -1" \
           "jobs-abc:--fleet --jobs abc"; do
  # shellcheck disable=SC2086
  rejects "reject/uvmsim/${bad%%:*}" uvmsim --workload NW ${bad#*:}
done
rejects reject/sweep/oversubs-abc uvmsim_sweep --oversubs abc
rejects reject/sweep/workloads-XYZ uvmsim_sweep --workloads XYZ
rejects reject/sweep/threads-abc uvmsim_sweep --threads abc
rejects reject/report/oversubs-abc uvmsim_report --oversubs abc
rejects reject/report/threads-abc uvmsim_report --threads abc

# --interval-metrics rows, CSV and JSONL. Under --large-pages the queue clock
# runs past the last warp, and the last row closes at the queue clock.
for fmt in csv jsonl; do
  intervals "single/NW-0.5-intervals-$fmt" "$fmt" --workload NW --oversub 0.5
  lacks stdout 'trace events recorded'
  intervals "single/SRD-0.9-large-pages-intervals-$fmt" "$fmt" --workload SRD \
    --oversub 0.9 --large-pages
  intervals "single/BFR-0.5-gpu-driven-intervals-$fmt" "$fmt" --workload BFR \
    --oversub 0.5 --fault-backend gpu-driven
done

# --trace-events filters the trace file alone: the run, its adaptive phase
# classifier and its interval rows see every event, and only a run with
# --trace-out reports a trace-event count.
cli single/MLT-0.5-adaptive-csv 0 --workload MLT --oversub 0.5 --eviction adaptive \
  --prefetch adaptive --csv
cli single/MLT-0.5-adaptive-csv-trace-events 1 --workload MLT --oversub 0.5 \
  --eviction adaptive --prefetch adaptive --csv --trace-events fault_raised
same_stdout single/MLT-0.5-adaptive-csv single/MLT-0.5-adaptive-csv-trace-events
intervals single/NW-0.5-intervals-csv-trace-events csv --workload NW --oversub 0.5 \
  --trace-events fault_raised
same single/NW-0.5-intervals-csv single/NW-0.5-intervals-csv-trace-events
cli single/NW-0.5-adaptive-untraced 0 --workload NW --oversub 0.5 --eviction adaptive \
  --prefetch adaptive
lacks stdout 'trace events recorded'

# The fleet refuses arrival settings it used to replace, and the sharded
# engine refuses spill on one GPU too.
rejects reject/uvmsim/arrival-rate-zero uvmsim --workload NW --fleet --arrival-rate 0
rejects reject/uvmsim/arrival-trace-unreadable uvmsim --workload NW --fleet \
  --arrival-trace "$TMP/none.txt"
rejects reject/uvmsim/engine-sharded-spill-gpus1 uvmsim --workload NW --engine sharded \
  --spill

# Choice flags accept only the names in their tables (common/names.hpp), so
# near-miss spellings exit 2. A fabric larger than its page directory can
# name is refused before any device is built.
rejects reject/uvmsim/engine-parallel uvmsim --workload NW --engine parallel
rejects reject/uvmsim/fabric-nvswitch uvmsim --workload NW --fabric nvswitch
rejects reject/uvmsim/fault-backend-gpuvm uvmsim --workload NW --fault-backend gpuvm
rejects reject/uvmsim/fleet-sched-affinity uvmsim --workload NW --fleet \
  --fleet-sched affinity
rejects reject/uvmsim/gpus-256 uvmsim --workload NW --gpus 256
rejects reject/uvmsim/engine-sharded-gpus-33 uvmsim --workload NW --engine sharded \
  --gpus 33
rejects reject/report/fabric-fraction uvmsim_report --fabric 2.5
rejects reject/sweep/tenant-group-one uvmsim_sweep --tenants NW

# 2 MB frames with several Gpus on one driver: two tenants' Gpus share its
# shootdown list through coalesces, a splinter and whole-frame evictions,
# and fleet job Gpus come and go while their regions splinter at teardown.
cli tenants/SRD,HOT-quota-large-pages 1 --tenants SRD,HOT --oversub 0.9 \
  --tenant-mode quota --large-pages
has trace '"ev":"large_frame_evicted"'
# shellcheck disable=SC2086
cli fleet/2gpu-large-pages 1 $FLEET --large-pages
has trace '"ev":"splinter"'

# text_trace <name> <path>: write <path>.trc, four warps of 64 accesses
# named <name>, through the text form.
text_trace() {
  {
    echo "# name: $1"
    for w in 0 1 2 3; do
      for p in $(seq 0 63); do echo "$w $((p + 16 * w))"; done
    done
  } > "$2.txt"
  "$TRACE" --from-text "$2.txt" --out "$2.trc" 2>/dev/null
}

# A replayed trace takes its workload name from the trace file, and every
# CSV cell is quoted when it needs to be: a comma in the name stays in one
# cell. A space stays in the name too (the scenario name spells it "_").
text_trace "hot,spot" "$TMP/hotspot"
cli single/trace-hot,spot-0.5-csv 0 --trace "$TMP/hotspot.trc" --oversub 0.5 --csv
has stdout '^"hot,spot",'
text_trace "hot spot" "$TMP/hot-spot"
cli single/trace-hot_spot-0.5-csv 0 --trace "$TMP/hot-spot.trc" --oversub 0.5 --csv
has stdout '^hot spot,'

# --help says that --csv writes one table per result slice.
LAST=help/uvmsim
"$UVMSIM" --help > "$TMP/stdout"
has stdout 'each with its own header'

# A pattern buffer of no entries is refused, not run as a one-entry buffer,
# and a tenant run can skip its solo baselines.
rejects reject/uvmsim/pattern-capacity-zero uvmsim --workload NW --pattern-capacity 0
cli tenants/NW,BFS-quota-no-solo 0 --tenants NW,BFS --tenant-mode quota --no-solo

# Feature combinations no scenario above runs: threshold-0 peer fetches on
# round-robin homes (each landing surrenders its source copy), spill on
# affinity homes (spilled chunks hop back), the partitioned and shared-self
# tenant modes, the fleet's headroom admission with least-loaded placement,
# an arrival-trace replay, and depth-1 GPU-driven fault queues.
cli fabric/ring2-NW-0.5-round-robin-migrate 1 --workload NW --oversub 0.5 --gpus 2 \
  --fabric ring --placement round-robin --remote-threshold 0
has trace '"ev":"peer_migration"'
cli fabric/ring2-NW-0.75-affinity-spill 1 --workload NW --oversub 0.75 --gpus 2 \
  --fabric ring --placement affinity --spill
has trace '"ev":"page_spilled"'
cli tenants/NW,BFS-partitioned 1 --tenants NW,BFS --oversub 0.5 --tenant-mode partitioned
cli tenants/NW,BFS-shared-self 1 --tenants NW,BFS --oversub 0.5 --tenant-mode shared \
  --tenant-evict self
printf '100\n2500\n40000\n' > "$TMP/gaps.txt"
# shellcheck disable=SC2086
{
  cli fleet/2gpu-headroom-least-loaded 1 $FLEET --admission headroom \
    --fleet-sched least-loaded
  cli fleet/2gpu-arrival-trace 1 $FLEET --arrival-trace "$TMP/gaps.txt"
}
cli single/BFR-0.5-gpu-driven-depth1 1 --workload BFR --oversub 0.5 \
  --fault-backend gpu-driven --gpu-fault-queue-depth 1
has trace '"ev":"fault_queue_full"'

# Spill needs a fabric run: one GPU, a fleet and a tenant run refuse it.
rejects reject/uvmsim/spill-gpus1 uvmsim --workload NW --spill
rejects reject/uvmsim/spill-fleet uvmsim --workload NW --fleet --spill
rejects reject/uvmsim/spill-tenants uvmsim --tenants NW,BFS --spill

# 2 MB frames on the sequential fabric. Regions coalesce on affinity homes,
# so a threshold-0 peer fetch splinters a region to surrender one of its
# pages, and a spilling victim splinters its region before it moves.
cli fabric/ring2-SRD-0.9-affinity-large-pages-migrate 1 --workload SRD --oversub 0.9 \
  --gpus 2 --fabric ring --placement affinity --large-pages --remote-threshold 0
has trace '"ev":"splinter".*"reason":2'
cli fabric/ring2-SRD-0.9-affinity-large-pages-spill 1 --workload SRD --oversub 0.9 \
  --gpus 2 --fabric ring --placement affinity --large-pages --spill
has trace '"ev":"splinter".*"reason":3'

# The whole report, every section on (tenants, fabric, large pages), on two
# and on one sweep thread; and a Gpu with more SMs than a 32-bit SM mask.
REPORT_ALL="--oversubs 0.5 --tenants NW+BFS --fabric 2 --large-pages SRD"
# shellcheck disable=SC2086
{
  report report/0.5-all-sections $REPORT_ALL --threads 2
  report report/0.5-all-sections-t1 $REPORT_ALL --threads 1
}
same report/0.5-all-sections report/0.5-all-sections-t1
cli single/NW-0.5-sms40 1 --workload NW --oversub 0.5 --sms 40

# Tool paths no scenario above runs: the workload and policy listings, an
# unknown policy name, and a sweep of registered <eviction>/<prefetch>
# pairs (the adaptive pair and FIFO) printed as its stdout table.
cli tool/uvmsim-list 0 --list
cli tool/uvmsim-list-policies 0 --list-policies
rejects reject/uvmsim/eviction-nope uvmsim --workload NW --eviction nope
rejects reject/uvmsim/prefetch-nope uvmsim --workload NW --prefetch nope
rc=0
"$SWEEP" --workloads NW,SRD --policies adaptive/adaptive,fifo/locality --oversubs 0.5 \
  --threads 2 > "$TMP/stdout" 2>/dev/null || rc=$?
echo "sweep/NW,SRD-pairs-table $rc $(digest "$TMP/stdout") -" >> "$OUT"

# A recorded trace replays as the live run: every --csv cell matches but the
# workload name, which the replay takes from the trace file. The recording
# run prints the trace's path, so only its exit code is checked.
LAST=single/NW-record-trace
rc=0
"$UVMSIM" --workload NW --record-trace "$TMP/nw.trc" > /dev/null 2>&1 || rc=$?
ASSERTIONS=$((ASSERTIONS + 1))
[ "$rc" = 0 ] || fail "$LAST exited $rc, not 0"
"$UVMSIM" --workload NW --oversub 0.5 --csv > "$TMP/live.csv" 2>/dev/null || true
cli single/trace-NW-0.5-csv 0 --trace "$TMP/nw.trc" --oversub 0.5 --csv
ASSERTIONS=$((ASSERTIONS + 1))
cmp -s <(cut -d, -f2- "$TMP/stdout") <(cut -d, -f2- "$TMP/live.csv") ||
  fail "$LAST: the replay's --csv differs from the live run's past the workload"
rc=0
"$TRACE" --info "$TMP/nw.trc" > "$TMP/stdout" 2>/dev/null || rc=$?
echo "trace/NW-info $rc $(digest "$TMP/stdout") -" >> "$OUT"

# Fleet rejections: by the quota policy, and at a full queue.
cli fleet/2gpu-quota-0.05 1 --fleet --gpus 2 --jobs 60 --admission quota --oversub 0.05
has trace '"ev":"job_rejected"'
cli fleet/2gpu-400-jobs-rate-2000 1 --fleet --gpus 2 --jobs 400 --arrival-rate 2000
has trace '"ev":"job_rejected"'

# The CSV files the two sweep runs above wrote (--out, --tenant-out); the
# file digest sits in the fourth column.
for csv in fig8/out tenants-NW+BFS/out tenants-NW+BFS/tenant-out; do
  echo "sweep/$csv-csv - - $(digest "$TMP/${csv/\//-}.csv")" >> "$OUT"
done

if [ "${#FAILED[@]}" -gt 0 ]; then
  printf 'golden: assertion failed: %s\n' "${FAILED[@]}" >&2
  exit 1
fi

if [ -f "$MANIFEST" ] && cmp -s "$MANIFEST" "$OUT"; then
  echo "golden: $(grep -vc '^#' "$OUT") scenarios match $MANIFEST;" \
    "$ASSERTIONS assertions hold"
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
