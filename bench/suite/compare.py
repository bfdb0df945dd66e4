#!/usr/bin/env python3
"""Compares bench_suite JSON reports.

    python3 bench/suite/compare.py BASE.json NEW.json
    python3 bench/suite/compare.py BASE1.json BASE2.json ... -- NEW1.json ...

With several reports on a side, each metric is the median over them: on a
shared host one run's timings can move 15% or more, so gate on medians of
several runs. Prints one row per workload and metric. Exits 1 when the
reports were taken with a different nproc, thread count T, build type or
smoke mode; when an end-to-end metric of NEW is worse than BASE by more than
its bound in BENCHMARK.json; when a workload's sim_digest or a deterministic
count (a per-layer metric marked exact) differs between any two reports; or
when NEW failed a correctness check. Per-layer timings are printed for
reading, never gated.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "..", "BENCHMARK.json")
CONTEXT = ("nproc", "threads", "build_type", "smoke")


def worse_by(base, new, better):
    """How much worse new is than base, as a share of base (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / base
    return change if better == "lower" else -change


def load(paths):
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    return reports


def main(argv):
    args = argv[1:]
    if "--" in args:
        cut = args.index("--")
        base_paths, new_paths = args[:cut], args[cut + 1:]
    elif len(args) == 2:
        base_paths, new_paths = args[:1], args[1:]
    else:
        base_paths = new_paths = []
    if not base_paths or not new_paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(base_paths), load(new_paths)
    with open(BENCHMARK) as f:
        e2e_defs = {m["name"]: m for m in json.load(f)["end_to_end"]}

    problems = []
    everyone = base + new
    for key in CONTEXT:
        values = {str(r.get(key)) for r in everyone}
        if len(values) > 1:
            problems.append(f"{key} differs: {sorted(values)}")

    def workloads(reports):
        return set().union(*(r["workloads"] for r in reports))

    rows = []
    for name in sorted(workloads(base) | workloads(new)):
        if any(name not in r["workloads"] for r in everyone):
            problems.append(f"{name}: missing from some report")
            continue
        b = [r["workloads"][name] for r in base]
        n = [r["workloads"][name] for r in new]
        failed = sum(w["failed"] for w in n)
        if failed:
            problems.append(f"{name}: {failed} failed checks in NEW")
        for metric, d in e2e_defs.items():
            if any(metric not in w["e2e"] for w in b + n):
                problems.append(f"{name} {metric}: missing from some report")
                continue
            bv = statistics.median(w["e2e"][metric]["value"] for w in b)
            nv = statistics.median(w["e2e"][metric]["value"] for w in n)
            worse = worse_by(bv, nv, d["better"])
            verdict = "ok" if worse <= d["bound"] else f"WORSE > {d['bound']:.0%}"
            if worse > d["bound"]:
                problems.append(f"{name} {metric}: {verdict}")
            rows.append((name, metric, bv, nv, f"{-worse:+.1%}", verdict))
        digests = {r["digests"][name] for r in everyone}
        same = len(digests) == 1
        rows.append((name, "sim_digest", base[0]["digests"][name],
                     new[0]["digests"][name], "", "ok" if same else "MISMATCH"))
        if not same:
            problems.append(f"{name} sim_digest differs: {sorted(digests)}")
        traced = [w for w in b + n if w["layer"]]
        for metric, m in (traced[0]["layer"].items() if traced else []):
            values = [w["layer"][metric]["value"] for w in traced]
            if m["exact"]:
                same = len(set(values)) == 1
                rows.append((name, metric, values[0], values[-1], "",
                             "ok" if same else "MISMATCH"))
                if not same:
                    problems.append(f"{name} {metric}: count differs")
            else:
                rows.append((name, metric, values[0], values[-1], "", "info"))

    print(f"{'workload':18} {'metric':32} {'base':>16} {'new':>16} "
          f"{'better by':>9}  verdict")
    for name, metric, bv, nv, change, verdict in rows:
        fmt = lambda v: f"{v:16.6g}" if isinstance(v, (int, float)) else f"{v!s:>16}"
        print(f"{name:18} {metric:32} {fmt(bv)} {fmt(nv)} {change:>9}  {verdict}")
    for p in problems:
        print("FAIL:", p)
    print(f"compare: {len(base)} base vs {len(new)} new report(s):",
          "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
