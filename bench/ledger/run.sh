#!/usr/bin/env bash
# The performance ledger's one command (README.md here): builds uvmbench
# from source, then measures.
#
#   bash bench/ledger/run.sh
#       all five workloads, each in its own process: untraced (end-to-end
#       metrics) then traced (per-layer metrics). Result files, with
#       provenance and raw samples, go to .bench_build/ledger/results/.
#   bash bench/ledger/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last line of stdout is its JSON result. Each
#       workload has fixed pass counts for --seconds 20, the default;
#       another --seconds scales them.
#   bash bench/ledger/run.sh --smoke
#       self-test: every workload shortened, checked against BENCHMARK.json.
#
# Build output goes to .bench_build/ledger/build.log (its tail to stderr on
# failure). Exit status: 0 = every output check passed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build/ledger"
results="$out/results"
bin="$out/build/uvmbench"

usage() {
  echo "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] | --smoke" >&2
  exit 2
}

workload="" seed=24301 seconds=20 trace=0 smoke=0
while (($#)); do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace="${2:?}"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) usage ;;
  esac
done

build() {
  mkdir -p "$out" "$results"
  local jobs gen=()
  jobs="$(nproc)"
  ((jobs > 4)) && jobs=4
  command -v ninja >/dev/null && gen=(-G Ninja)
  if ! {
    { [[ -f "$out/build/CMakeCache.txt" ]] || cmake -S "$here" -B "$out/build" "${gen[@]}"; } &&
      cmake --build "$out/build" --target uvmbench -j "$jobs"
  } >"$out/build.log" 2>&1; then
    tail -n 30 "$out/build.log" >&2
    echo "run.sh: build failed; full log in $out/build.log" >&2
    exit 1
  fi
}

build

if ((smoke)); then
  "$bin" --smoke --seed "$seed" --out "$results/smoke.json"
  exec python3 "$here/compare.py" check "$results/smoke.json" \
    --benchmark "$root/BENCHMARK.json"
fi

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$results/$workload-$seed-trace$trace.json" \
    --trace-out "$results/$workload-$seed.spans.jsonl"
fi

status=0
for w in fig8 fit fabric4 fleet mixed; do
  for t in 0 1; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
      --out "$results/$w-trace$t.json" --trace-out "$results/$w.spans.jsonl" ||
      status=1
  done
done
echo "run.sh: result files in $results" >&2
exit "$status"
