#!/usr/bin/env python3
"""Builds bench_suite from source and runs one workload of it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build); later runs only
check it is up to date. The workload runs with --seconds as its time budget
for timed reps. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end-to-end metric with --trace 0 and every per-layer metric with --trace 1
(the traced run also writes a Chrome trace under the build tree).

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; kills its whole process group on
    timeout. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build(build_dir):
    """Configures (once) and builds the bench_suite target; returns its path."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
            return None
    jobs = str(max(1, (os.cpu_count() or 2) // 2))
    cmd = ["cmake", "--build", build_dir, "--target", "bench_suite", "-j", jobs]
    if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
        return None
    return os.path.join(build_dir, "bench_suite")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "bench_suite")
    exe = build(build_dir)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    json_path = os.path.join(out_dir, stem + ".json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--json", json_path,
           "--scratch", os.path.join(build_dir, "scratch")]
    if args.trace:
        cmd += ["--trace", os.path.join(out_dir, stem + ".trace.json")]
    code = run_logged(cmd, RUN_TIMEOUT_S)
    # 0 = every check passed, 1 = a check failed; anything else (a crash,
    # bad arguments, a timeout) leaves no trustworthy report.
    if code not in (0, 1) or not os.path.exists(json_path):
        print(f"run.py: bench_suite exited with {code}", file=sys.stderr)
        return 1
    with open(json_path) as f:
        report = json.load(f)
    w = report["workloads"][args.workload]
    section = w["layer"] if args.trace else w["e2e"]
    result = {
        "correct": code == 0 and w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in section.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
