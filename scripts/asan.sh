#!/usr/bin/env bash
# Address+UB sanitizer build and test run: undefined behaviour is fatal
# (-fno-sanitize-recover=undefined), so a UB report fails the suite or the
# run that hits it. Ends with sanitized end-to-end runs of the paths a unit
# test reaches only in part.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer"
cmake --build build-asan
ctest --test-dir build-asan -j"$(nproc)" --output-on-failure

# A 2-GPU fabric with spill: peer-path arithmetic (fixed-point link rates,
# hop accounting) and the spill/hop-back protocol.
build-asan/tools/uvmsim --workload NW --oversub 0.5 \
  --gpus 2 --fabric ring --spill >/dev/null
echo "sanitized fabric smoke OK"

# One traced Fig 8 workload end-to-end under the sanitizers: the
# flight-recorder path (driver/policy/prefetcher instrumentation -> JSONL +
# interval metrics) and the fast-path structures (InlineFunction relocation,
# FlatMap backward-shift erase, chunk-chain slab reuse) only fully exercise
# themselves in a real oversubscribed simulation.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
build-asan/tools/uvmsim --workload NW --oversub 0.5 --sim-stats \
  --trace-out "$TRACE_DIR/t.jsonl" --interval-metrics "$TRACE_DIR/iv.csv" >/dev/null
head -1 "$TRACE_DIR/t.jsonl" | grep -q '"schema":"uvmsim-trace"'
echo "sanitized traced run OK: $(wc -l < "$TRACE_DIR/t.jsonl") events"

# A second traced Fig 8 workload: SRD drives the fault/evict/prefetch hot
# path (heap sift arithmetic, FlatMap probe masks, slab index links) with
# another access pattern.
build-asan/tools/uvmsim --workload SRD --oversub 0.5 --sim-stats \
  --trace-out "$TRACE_DIR/srd.jsonl" >/dev/null
head -1 "$TRACE_DIR/srd.jsonl" | grep -q '"schema":"uvmsim-trace"'
echo "sanitized SRD traced run OK: $(wc -l < "$TRACE_DIR/srd.jsonl") events"

# The same end-to-end pass with 2 MB large frames on: coalesce/splinter
# metadata flips, whole-frame eviction, and the large-TLB shootdown fan-out
# run under the sanitizers (docs/memory.md).
build-asan/tools/uvmsim --workload SRD --oversub 0.9 --large-pages \
  --trace-out "$TRACE_DIR/lp.jsonl" >/dev/null
grep -q '"ev":"coalesce"' "$TRACE_DIR/lp.jsonl"
echo "sanitized large-pages run OK: $(wc -l < "$TRACE_DIR/lp.jsonl") events"

# A traced GPU-driven fault-backend run: per-SM queue churn, overflow-list
# erase-in-the-middle, and WakeCallback moves through the fault table are
# the allocation-heavy paths the backend adds (docs/faultsvc.md).
build-asan/tools/uvmsim --workload BFR --oversub 0.5 --fault-backend gpu-driven \
  --trace-out "$TRACE_DIR/gb.jsonl" >/dev/null
grep -q '"ev":"gpu_fault_serviced"' "$TRACE_DIR/gb.jsonl"
echo "sanitized gpu-driven backend run OK: $(wc -l < "$TRACE_DIR/gb.jsonl") events"

# The same backend with depth-1 queues, which forces the overflow path: the
# us -> cycle conversions, handler-occupancy arithmetic and queue-index
# modulo under queue-full stalls.
build-asan/tools/uvmsim --workload BFR --oversub 0.5 --fault-backend gpu-driven \
  --gpu-fault-queue-depth 1 --trace-out "$TRACE_DIR/gb1.jsonl" >/dev/null
grep -q '"ev":"fault_queue_full"' "$TRACE_DIR/gb1.jsonl"
echo "sanitized depth-1 gpu-driven backend run OK: $(wc -l < "$TRACE_DIR/gb1.jsonl") events"

# A traced fleet run: thousands of tenant attach/detach cycles, Gpu
# construction/teardown mid-simulation, and namespace recycling are the
# lifetime-heavy paths a leak or use-after-free would hide in
# (docs/fleet.md).
build-asan/tools/uvmsim --fleet --jobs 80 --gpus 2 --arrival-rate 40 \
  --oversub 0.4 --trace-out "$TRACE_DIR/fl.jsonl" >/dev/null
grep -q '"ev":"job_completed"' "$TRACE_DIR/fl.jsonl"
echo "sanitized fleet run OK: $(wc -l < "$TRACE_DIR/fl.jsonl") events"

# The same fleet with 2 MB frames: each job Gpu's one shootdown
# registration, 2 MB handler included, is removed while the driver lives on,
# and teardown splinters the job's coalesced regions.
build-asan/tools/uvmsim --fleet --jobs 80 --gpus 2 --arrival-rate 40 \
  --oversub 0.4 --large-pages --trace-out "$TRACE_DIR/fllp.jsonl" >/dev/null
grep -q '"ev":"splinter"' "$TRACE_DIR/fllp.jsonl"
echo "sanitized large-pages fleet run OK: $(wc -l < "$TRACE_DIR/fllp.jsonl") events"
