#!/usr/bin/env python3
"""Alternating A/B runs of perfbench between two revisions.

    python3 scripts/ab_pairs.py --base f7f0d75 --head HEAD --workload campaign \\
        --seeds 701-710 --seconds 45 --claim work_per_s --workdir /tmp/ab

Resolves both revisions to commit hashes and exports each with `git
archive` into <workdir>/<hash> (no worktree bookkeeping is left in the
repository; a later call reuses a tree only under the same hash), builds
each with its own perfbench/run.py, then runs one pair per seed: base and
head on the same seed, the side that runs first swapping every pair.  For
every end-to-end metric of BENCHMARK.json it prints the medians and
quartiles of both sides, the head's wins and a verdict:

  claim       the --claim metric: "gain" when the head wins at least 9 of
              every 10 pairs and its median gain exceeds the base's
              interquartile range, else "no gain";
  others      "within bound" when the head's median is no worse than the
              base's by more than the metric's BENCHMARK.json bound,
              "regressed" when it is, and "unresolved" when the base's own
              interquartile range exceeds that bound (the runs spread too
              widely to tell) unless every head run reads better than every
              base run.

It also prints failure counts and, per seed, whether the two sides printed
the same campaign report digest and pipeline decision log.  --trace 1 runs
perfbench's per-layer pass instead and prints the medians of every layer
metric.

Around every run it times a host probe, a fixed single-thread loop like the
one perfbench/NOISE.md timed, and prints the probe's quartiles per side:
sets taken in different host phases differ by more than a bound, and the
probe says which phase a set ran in.  --record LABEL appends the set to
BENCH_trajectory.json under that label (one record per change, created on
first use): both revisions, the workload, the seeds, every metric's median
and quartiles per side with wins and verdict, the probe times, failures,
digest equality and the host's CPU model and whether it has AVX-512F.  Sets
from hosts of different vector widths do not compare: the avx2 kernel table
runs its GEMMs 16 lanes wide where AVX-512 is present.  A --trace 1 set
records the traced layer rows.

The verdict arithmetic, the record and the export are tested by
scripts/test_ab_pairs.py.
"""
import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST_NOTE = re.compile(r"^note: (campaign report digest|pipeline decision log) (\w+)")


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(q):
        pos = q * (len(xs) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def wins(base, head, better):
    """Pairs in which the head beats the base."""
    if better == "higher":
        return sum(1 for b, h in zip(base, head) if h > b)
    return sum(1 for b, h in zip(base, head) if h < b)


def claim_verdict(base, head, better):
    """'gain' when the head wins >= 90% of the pairs and its median beats the
    base's by more than the base's interquartile range."""
    q1, med_b, q3 = quartiles(base)
    med_h = quartiles(head)[1]
    gain = med_h - med_b if better == "higher" else med_b - med_h
    enough_wins = wins(base, head, better) * 10 >= 9 * len(base)
    return "gain" if enough_wins and gain > q3 - q1 else "no gain"


def verdict(metric, base, head, claim):
    """The printed verdict of one BENCHMARK.json metric."""
    if metric["name"] == claim:
        return "claim: " + claim_verdict(base, head, metric["better"])
    if "bound" in metric:
        return bound_verdict(base, head, metric["better"], metric["bound"])
    return ""


def bound_verdict(base, head, better, bound):
    """'within bound', 'regressed', or 'unresolved' when the base's IQR
    relative to its median exceeds the bound and not every head run reads
    better than every base run."""
    q1, med_b, q3 = quartiles(base)
    med_h = quartiles(head)[1]
    all_better = (min(head) > max(base)) if better == "higher" else (max(head) < min(base))
    if med_b == 0:
        return "within bound" if med_h == 0 or all_better else "unresolved"
    if (q3 - q1) / abs(med_b) > bound:
        return "within bound" if all_better else "unresolved"
    worse = (med_b - med_h) / abs(med_b) if better == "higher" else (med_h - med_b) / abs(med_b)
    return "regressed" if worse > bound else "within bound"


PROBE_STEPS = 400000


def probe_ms(steps=PROBE_STEPS):
    """Milliseconds of a fixed single-thread integer loop (about 50 ms at the
    default size on a 4-vCPU shared x86 host); only the host's speed moves
    it."""
    t0 = time.perf_counter()
    x = 1
    for i in range(steps):
        x = (x * 1103515245 + 12345 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1000.0


def host_cpu(cpuinfo="/proc/cpuinfo"):
    """{"model", "avx512f"} of the first processor listed in `cpuinfo`: the
    model name with its family and model numbers, and whether its flags
    hold avx512f (None, and model "unknown", where the file is missing)."""
    fields = {}
    try:
        with open(cpuinfo) as f:
            for line in f:
                if not line.strip():
                    if fields:
                        break
                    continue
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        return {"model": "unknown", "avx512f": None}
    model = "%s (family %s model %s)" % (fields.get("model name", "unknown"),
                                         fields.get("cpu family", "?"), fields.get("model", "?"))
    return {"model": model, "avx512f": "avx512f" in fields.get("flags", "").split()}


def summary(values):
    """{"median", "q1", "q3"} of a list of numbers."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3}


def record_entry(args, commits, declared, values, probes, failed, digest_rows):
    """One run set as BENCH_trajectory.json stores it."""
    metrics = {}
    for m in declared:
        base, head = values["base"][m["name"]], values["head"][m["name"]]
        if not base or len(base) != len(head):
            continue
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"],
            "base": summary(base), "head": summary(head),
            "wins": wins(base, head, m["better"]), "pairs": len(base),
            "verdict": verdict(m, base, head, args.claim)}
    return {
        "base": commits["base"], "head": commits["head"],
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "seeds": parse_seeds(args.seeds),
        "metrics": metrics,
        "probe_ms": {side: {"runs": runs, **summary(runs)} for side, runs in probes.items()
                     if runs},
        "failures": failed,
        "digests_equal": all(base == head for _, base, head in digest_rows),
        "host": host_cpu(),
    }


def append_record(path, label, entry):
    """Adds `entry` to the record named `label` in the trajectory file at
    `path` (creating the file or the record), written through a temporary
    file and a rename."""
    trajectory = {"records": []}
    if os.path.exists(path):
        with open(path) as f:
            trajectory = json.load(f)
    for record in trajectory["records"]:
        if record["label"] == label:
            record["sets"].append(entry)
            break
    else:
        trajectory["records"].append({"label": label, "sets": [entry]})
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(trajectory, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


STAMP = ".ab_pairs_commit"


def resolve(rev):
    """The full hash of the commit that revision `rev` names."""
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def export(commit, workdir):
    """Writes `commit` of the repository into <workdir>/<commit> and returns
    that directory.  A tree left there by an earlier call is reused only when
    its stamp, written once the export is complete, names the same commit."""
    dest = os.path.join(workdir, commit)
    stamp = os.path.join(dest, STAMP)
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == commit:
                return dest
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return dest


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run: (result dict or None, {note kind: digest})."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    digests = {}
    for line in proc.stderr.splitlines():
        m = DIGEST_NOTE.match(line)
        if m and m.group(1) not in digests:
            digests[m.group(1)] = m.group(2)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return result, digests


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the A side")
    parser.add_argument("--head", required=True, help="revision of the B side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 701-710 or 1,2,3")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--claim", default="", help="metric the head claims to improve")
    parser.add_argument("--workdir", required=True, help="scratch directory for the trees")
    parser.add_argument("--record", default="",
                        help="append the set to BENCH_trajectory.json under this label")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    commits = {"base": resolve(args.base), "head": resolve(args.head)}
    trees = {side: export(commit, args.workdir) for side, commit in commits.items()}
    print("base %s, head %s" % (commits["base"], commits["head"]), file=sys.stderr)
    values = {side: {m["name"]: [] for m in declared} for side in trees}
    failed = {side: 0 for side in trees}
    probes = {side: [] for side in trees}
    digest_rows = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        digests = {}
        for side in order:
            probes[side].append(probe_ms())
            result, digests[side] = run_once(trees[side], args.workload, seed,
                                             args.seconds, args.trace)
            probes[side].append(probe_ms())
            if result is None:
                failed[side] += 1
                print("seed %d %s: run failed" % (seed, side), file=sys.stderr)
                continue
            failed[side] += result["failed"]
            for m in declared:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        digest_rows.append((seed, digests["base"], digests["head"]))
        print("seed %d done (%s first)" % (seed, order[0]), file=sys.stderr)

    print("%-36s %-30s %-30s %6s  %s" % (
        "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict"))
    for m in declared:
        base, head = values["base"][m["name"]], values["head"][m["name"]]
        if not base or len(base) != len(head):
            print("%-36s unpaired runs" % m["name"])
            continue
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        print("%-36s %-30s %-30s %3d/%-2d  %s" % (
            m["name"], "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
            "%.4g [%.4g, %.4g]" % (hmed, hq1, hq3),
            wins(base, head, m["better"]), len(base), verdict(m, base, head, args.claim)))
    for side in ("base", "head"):
        q1, med, q3 = quartiles(probes[side])
        print("host probe ms, %s runs: %.1f [%.1f, %.1f]" % (side, med, q1, q3))
    host = host_cpu()
    print("host: %s, avx512f %s" % (host["model"], host["avx512f"]))
    print("failures: base %d, head %d" % (failed["base"], failed["head"]))
    for seed, base, head in digest_rows:
        for kind in sorted(set(base) | set(head)):
            same = base.get(kind) == head.get(kind)
            print("seed %d %s: base %s head %s %s" % (
                seed, kind, base.get(kind), head.get(kind), "equal" if same else "DIFFER"))
    if args.record:
        append_record(os.path.join(ROOT, "BENCH_trajectory.json"), args.record,
                      record_entry(args, commits, declared, values, probes, failed,
                                   digest_rows))
        print("recorded under %r in BENCH_trajectory.json" % args.record, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
