#!/usr/bin/env python3
"""Compare ledger results (README.md here). Standard library only.

  compare.py diff PARENT CHANGE
      PARENT and CHANGE are result files written by uvmbench --out, or
      directories of them. Prints, per (workload, metric), both medians,
      their quartiles, the delta and a verdict.

  compare.py pairs PARENT_TREE CHANGE_TREE [--pairs 10] [--workload W ...]
                   [--seed N]
      Runs bench/ledger/run.sh in two checkouts, alternating which side runs
      first, one seed per pair. A gain counts only when the change wins at
      least 9 of 10 pairs (ties count for neither) and the medians differ by
      more than the parent's interquartile range.

  compare.py check SMOKE_JSON [--benchmark BENCHMARK.json]
      The smoke self-test's assertion: every workload in BENCHMARK.json
      emits exactly its end-to-end and per-layer metrics, with their units,
      and the workload-specific results listed in RESULTS below. It also
      checks the verdicts on a parent median of 0.

Verdicts use the bounds in BENCHMARK.json. better: in pairs, the gain rule
above; in diff, the medians differ by more than the parent's interquartile
range and every change run beats every parent run. A gain needs separate
runs: the passes of one run share the host's load, so diff of two lone
files never reports better. worse: the change's median is worse than the
parent's by more than the bound. unresolved: a side's quartile spread
exceeds the bound, unless every change run beats every parent run. A metric
without a bound (per-layer) that moved but is neither better nor clearly
worse is unresolved. unchanged: otherwise. Exact results (failed_frac,
fig8_gap_pct, goodput, slowdown_p99, jain) have bound 0: any difference is
a verdict, and any failure the parent did not have is worse. From a parent
median of 0, a change is measured absolutely instead of relatively.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig8", "fit", "fabric4", "fleet", "mixed"]
# Workload-specific results, reported beside the metrics of BENCHMARK.json
# (which every workload must emit): name -> (better, bound, workloads).
# Bound 0 marks an exact simulated result; None a host time without a bound.
RESULTS = {
    "failed_frac": ("lower", 0.0, WORKLOADS),
    "fig8_gap_pct": ("lower", 0.0, ["fig8"]),
    "goodput": ("higher", 0.0, ["fleet"]),
    "slowdown_p99": ("lower", 0.0, ["fleet"]),
    "jain": ("higher", 0.0, ["mixed"]),
    "workloads.ms": ("lower", None, ["fig8", "fit", "fabric4", "mixed"]),
    "workloads.next_ns": ("lower", None, ["fig8", "fit", "fabric4", "mixed"]),
    "gpu.shootdown_ms": ("lower", None, ["fig8", "mixed"]),
    "gpu.shootdown_ns_per_page": ("lower", None, ["fig8", "mixed"]),
    "sim.engine_wall_threaded_s": ("lower", None, ["fabric4"]),
    "sim.engine_scaling": ("higher", None, ["fabric4"]),
    "fleet.host_ms_per_job": ("lower", None, ["fleet"]),
}


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    spec.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    spec.update({name: (better, bound) for name, (better, bound, _) in RESULTS.items()})
    return bench, spec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, wins=None, runs=True):
    """parent/change: lists of values; wins: pairs the change won, if paired;
    runs: the values come from separate runs, not from passes of one run."""
    a1, am, a3 = quartiles(parent)
    b1, bm, b3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    # > 0: the change is worse. Relative to the parent, or absolute from 0.
    worse_by = sign * (bm - am) / (abs(am) or 1.0)
    if bound == 0.0:
        return "unchanged" if am == bm else ("worse" if worse_by > 0 else "better")
    if parent == change:
        return "unchanged"
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    loses_all = all(sign * (c - p) > 0 for c in change for p in parent)
    moved = abs(bm - am) > (a3 - a1)  # beyond the parent's own spread
    if wins is not None:
        if worse_by < 0 and moved and wins >= 0.9 * len(change):
            return "better"
    elif runs and worse_by < 0 and moved and beats_all:
        return "better"
    if bound is None:
        return "worse" if runs and worse_by > 0 and moved and loses_all else "unresolved"
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound and not beats_all:
        return "worse" if loses_all and worse_by > bound else "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def fmt(x):
    return f"{x:.6g}"


def print_rows(rows):
    head = ["workload", "metric", "unit", "parent", "p.q1", "p.q3", "change",
            "c.q1", "c.q3", "delta", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [head]) for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def row(workload, name, unit, parent, change, spec, wins=None, runs=True):
    better, bound = spec.get(name, ("lower", None))
    a1, am, a3 = quartiles(parent)
    b1, bm, b3 = quartiles(change)
    delta = f"{100.0 * (bm - am) / abs(am):+.2f}%" if am else "n/a"
    v = verdict(parent, change, better, bound, wins, runs)
    if name == "failed_frac" and max(change) > max(parent):
        v = "worse"  # any failure the parent did not have, whatever the median
    if wins is not None:
        v += f" ({wins}/{len(change)} won)"
    return [workload, name, unit, fmt(am), fmt(a1), fmt(a3), fmt(bm), fmt(b1), fmt(b3),
            delta, v]


def result_files(path):
    if os.path.isdir(path):
        return sorted(os.path.join(path, f) for f in os.listdir(path)
                      if f.endswith(".json") and not f.startswith("smoke"))
    return [path]


def collect(path):
    """{(workload, mode): {metric: (unit, [values], runs)}}: one value per
    file (runs=True), or a lone file's per-pass samples (runs=False)."""
    by_key = {}
    for p in result_files(path):
        with open(p) as f:
            r = json.load(f)
        key = (r["workload"], r["mode"])
        for section in ("metrics", "results"):
            for name, m in r[section].items():
                by_key.setdefault(key, {}).setdefault(name, (m["unit"], [], []))
                by_key[key][name][1].append(m["value"])
                by_key[key][name][2].extend(m["samples"])
    return {k: {n: (u, vals, True) if len(vals) > 1 else (u, samples, False)
                for n, (u, vals, samples) in ms.items()}
            for k, ms in by_key.items()}


def cmd_diff(args):
    _, spec = load_benchmark(args.benchmark)
    parent, change = collect(args.parent), collect(args.change)
    rows = []
    for key in sorted(set(parent) & set(change)):
        for name in sorted(set(parent[key]) & set(change[key])):
            unit, a, a_runs = parent[key][name]
            _, b, b_runs = change[key][name]
            rows.append(row(key[0] + ("/traced" if key[1] == "traced" else ""), name,
                            unit, a, b, spec, runs=a_runs and b_runs))
    if not rows:
        sys.exit("compare.py: no (workload, mode) present on both sides")
    print_rows(rows)


def run_tree(tree, workload, seed):
    cmd = ["bash", os.path.join("bench", "ledger", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} failed in {tree}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"compare.py: failed output checks in {tree}")
    return result["metrics"]


def cmd_pairs(args):
    _, spec = load_benchmark(args.benchmark)
    if args.pairs < 10:
        sys.exit("compare.py: --pairs must be at least 10")
    rows = []
    for w in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_tree(tree, w, args.seed + i))
                print(f"pair {i + 1}/{args.pairs} {w} {side} done", file=sys.stderr)
        for name, m in runs["parent"][0].items():
            a = [r[name]["value"] for r in runs["parent"]]
            b = [r[name]["value"] for r in runs["change"]]
            sign = 1.0 if spec.get(name, ("lower",))[0] == "lower" else -1.0
            wins = sum(1 for p, c in zip(a, b) if sign * (c - p) < 0)
            rows.append(row(w, name, m["unit"], a, b, spec, wins))
    print_rows(rows)


def verdict_errors(spec):
    """Verdicts on a parent median of 0, which a relative delta cannot give."""
    cases = [("failed_frac", [0.0], [0.05], "worse"),
             ("failed_frac", [0.0] * 10, [0.0] * 9 + [0.05], "worse"),
             ("failed_frac", [0.0], [0.0], "unchanged"),
             ("gpu.shootdown_pages", [0.0] * 10, [3.0] * 10, "worse"),
             ("gpu.shootdown_pages", [3.0] * 10, [0.0] * 10, "better")]
    errors = []
    for name, parent, change, want in cases:
        got = row("-", name, "-", parent, change, spec)[-1]
        if got != want:
            errors.append(f"verdict on {name} {parent} -> {change} is {got}, expected {want}")
    return errors


def cmd_check(args):
    bench, spec = load_benchmark(args.benchmark)
    with open(args.smoke) as f:
        smoke = json.load(f)["workloads"]
    errors = verdict_errors(spec)
    for w in (x["name"] for x in bench["workloads"]):
        if w not in smoke:
            errors.append(f"{w}: not run")
            continue
        for section, want in (("end_to_end", bench["end_to_end"]),
                              ("per_layer", bench["per_layer"])):
            got = smoke[w][section]
            for m in want:
                if m["name"] not in got:
                    errors.append(f"{w}: {section} metric {m['name']} not emitted")
                elif got[m["name"]]["unit"] != m["unit"]:
                    errors.append(f"{w}: {m['name']} unit {got[m['name']]['unit']}"
                                  f" != {m['unit']}")
            extra = set(got) - {m["name"] for m in want}
            errors += [f"{w}: {section} metric {n} not in BENCHMARK.json"
                       for n in sorted(extra)]
        want = {n for n, (_, _, ws) in RESULTS.items() if w in ws}
        got = set(smoke[w]["results"])
        errors += [f"{w}: result {n} not emitted" for n in sorted(want - got)]
        errors += [f"{w}: result {n} not expected here" for n in sorted(got - want)]
        # Layer attribution: nothing is shot down when everything fits.
        pages = smoke[w]["per_layer"].get("gpu.shootdown_pages", {}).get("value")
        if w == "fit" and pages != 0:
            errors.append(f"fit: gpu.shootdown_pages = {pages}, expected 0")
    for e in errors:
        print(f"compare.py check: {e}", file=sys.stderr)
    print(f"smoke metrics vs BENCHMARK.json: {'ok' if not errors else 'FAILED'}")
    sys.exit(1 if errors else 0)


def main():
    default_bench = os.path.join(HERE, "..", "..", "BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=24301)
    c = sub.add_parser("check")
    c.add_argument("smoke")
    for s in (d, p, c):
        s.add_argument("--benchmark", default=default_bench)
    args = ap.parse_args()
    {"diff": cmd_diff, "pairs": cmd_pairs, "check": cmd_check}[args.cmd](args)


if __name__ == "__main__":
    main()
