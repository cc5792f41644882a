"""Self-tests of the benchmark definition and harness.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root.  The first test to call run.py builds the
harness (a minute or two); after that every workload runs a tiny-shaped
pass, correctness checks included, within seconds.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
LAYER_MAP = load(os.path.join(PERFBENCH, "layer_map.json"))


def bench_run(workload, seed, seconds="0.5", trace=0, tiny=True, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def note(proc, pattern):
    match = re.search(pattern, proc.stderr)
    assert match, "no note matching %r in:\n%s" % (pattern, proc.stderr[-3000:])
    return match


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(sorted(BENCH), sorted(["command", "paths", "run_seconds", "workloads",
                                                "end_to_end", "per_layer"]))
        self.assertEqual(BENCH["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(BENCH["paths"], ["perfbench"])
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertLessEqual(len(BENCH["per_layer"]), 128)

    def test_names(self):
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_workloads_match_the_harness(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], ["campaign", "pipeline"])
        self.assertTrue(set(w["name"] for w in BENCH["workloads"]) <= set(run.WORKLOADS))
        for w in BENCH["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))

    def test_layer_map_covers_every_layer_metric(self):
        self.assertEqual(sorted(LAYER_MAP), sorted(m["name"] for m in BENCH["per_layer"]))
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        for name, target in LAYER_MAP.items():
            self.assertIn(target["moves"], e2e, name)
            self.assertTrue(set(target["on"]) <= set(run.WORKLOADS), name)


class WorkloadTest(unittest.TestCase):
    """A tiny pass of every workload, with its output checks."""

    def check_workload(self, workload):
        e2e = sorted(m["name"] for m in BENCH["end_to_end"])
        digests = []
        for seed in (3, 3, 4):
            proc = bench_run(workload, seed)
            result = result_of(proc)
            self.assertTrue(result["correct"], proc.stderr[-3000:])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(sorted(result["metrics"]), e2e)
            digests.append(note(proc, r"note: inputs ([0-9a-f]{16})").group(1))
        # The inputs come from --seed: the same seed, the same inputs.
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])
        return proc

    def test_campaign(self):
        self.check_workload("campaign")

    def test_pipeline(self):
        self.check_workload("pipeline")

    def test_serving(self):
        for workload in ("serve-fp32", "serve-q8"):
            proc = self.check_workload(workload)
            # The fixed rate and latency limit are the documented ones.
            match = note(proc, r"open loop ([0-9.]+) rps, limit ([0-9.]+) ms")
            self.assertEqual((float(match.group(1)), float(match.group(2))),
                             {"serve-fp32": (3000.0, 2.0), "serve-q8": (800.0, 6.0)}[workload])

    def test_thread_budget_is_checked(self):
        proc = bench_run("serve-fp32", 3)
        match = note(proc, r"(\d+) threads of (\d+) CPUs, pool pinned to 1")
        self.assertLessEqual(int(match.group(1)), int(match.group(2)))

    def test_trace_prints_every_layer_metric(self):
        result = result_of(bench_run("campaign", 3, trace=1))
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in BENCH["per_layer"]))

    def test_pipeline_story_at_pinned_seed(self):
        # Full-size shape: the drill must be caught, and the canary must both
        # promote and hold at least once.
        proc = bench_run("pipeline", 7, seconds="0.1", tiny=False)
        self.assertTrue(result_of(proc)["correct"])
        m = note(proc, r"(\d+) promotions, (\d+) holds, (\d+) rollbacks")
        self.assertTrue(all(int(n) >= 1 for n in m.groups()), m.group(0))


class OutsideCheckoutTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.build_dir())
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_run("campaign", 1, tiny=False, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
