#!/usr/bin/env python3
"""The tdfm benchmark: builds the perfbench harness and runs one workload.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0

Run it from the repository root.  The first call configures and builds
perfbench/ (the tdfm libraries plus the workload runner) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only check the build.  Each workload runs in its own
process.

--trace 0 prints the end-to-end metrics of BENCHMARK.json for the named
workload.  --trace 1 prints every per-layer metric: it runs the per-layer
pass of all four workloads, each in its own process, because the layer
profile is one table whatever workload is named.  BENCHMARK.json gates
campaign and pipeline; serve-fp32 and serve-q8 run the same way but are not
gated, because their latency moves with the host (NOISE.md).

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build output and the workloads' notes go to stderr.  Without the tdfm
sources next to perfbench/ the script exits 2 without a result.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload the harness runs; BENCHMARK.json gates a subset.
WORKLOADS = ["campaign", "serve-fp32", "serve-q8", "pipeline"]
# A run must end within 180 s once the build is done.
RUN_BUDGET_S = 170.0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then brings the perfbench binary up to date."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, args, trace, deadline):
    """Runs one workload process; returns its parsed result line."""
    workdir = os.path.join(build_dir(), "work-%d-%s" % (os.getpid(), workload))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", "1" if trace else "0",
           "--tiny", "1" if args.tiny else "0", "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % workload)
    return json.loads(lines[-1])


def checked_metrics(result, declared, nonzero):
    """The result's metrics in BENCHMARK.json order, units and values checked."""
    got = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(got), sorted(names)))
    metrics = {}
    for m in declared:
        value = got[m["name"]]["value"]
        if got[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError("%s: unit %s, BENCHMARK.json says %s"
                               % (m["name"], got[m["name"]]["unit"], m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError("%s: value %r is not a finite number" % (m["name"], value))
        if nonzero and value == 0:
            raise RuntimeError("%s: end-to-end metric read 0" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no tdfm sources at %s; nothing to benchmark" % ROOT, file=sys.stderr)
        return 2
    bench = load_benchmark()
    if not {w["name"] for w in bench["workloads"]} <= set(WORKLOADS):
        print("run.py: BENCHMARK.json names a workload outside %s" % WORKLOADS,
              file=sys.stderr)
        return 2

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            # The named workload first, then the rest of the layer profile.
            order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
            results = [run_workload(binary, w, args, True, deadline) for w in order]
            merged = {}
            for r in results:
                merged.update(r["metrics"])
            result = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": merged,
            }
            declared = bench["per_layer"]
        else:
            result = run_workload(binary, args.workload, args, False, deadline)
            declared = bench["end_to_end"]
        metrics = checked_metrics(result, declared, nonzero=not args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    if result["attempted"] < 1:
        print("run.py: no operation attempted", file=sys.stderr)
        return 1
    print(json.dumps({"correct": bool(result["correct"]) and result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
