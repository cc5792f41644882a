#!/usr/bin/env python3
"""Unit tests of scripts/ab_pairs.py's verdict arithmetic, trajectory record
and export (ctest ab_pairs_verdicts)."""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_pairs  # noqa: E402


def in_git_checkout():
    """Whether the scripts sit in a git work tree (an exported copy does not)."""
    top = subprocess.run(["git", "-C", ab_pairs.ROOT, "rev-parse", "--show-toplevel"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return top.returncode == 0 and os.path.samefile(top.stdout.strip(), ab_pairs.ROOT)


class Quartiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(ab_pairs.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(ab_pairs.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
        self.assertEqual(ab_pairs.quartiles([7]), (7, 7, 7))


class Wins(unittest.TestCase):
    def test_counts_pairs_in_the_better_direction(self):
        self.assertEqual(ab_pairs.wins([1, 2, 3], [2, 2, 1], "higher"), 1)
        self.assertEqual(ab_pairs.wins([1, 2, 3], [2, 2, 1], "lower"), 1)


class ClaimVerdict(unittest.TestCase):
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_gain_needs_nine_of_ten_wins_and_a_median_gain_above_the_iqr(self):
        head = [b + 1.0 for b in self.base]
        self.assertEqual(ab_pairs.claim_verdict(self.base, head, "higher"), "gain")

    def test_eight_wins_are_not_enough(self):
        head = [b + 1.0 for b in self.base[:8]] + [b - 1.0 for b in self.base[8:]]
        self.assertEqual(ab_pairs.claim_verdict(self.base, head, "higher"), "no gain")

    def test_a_gain_inside_the_iqr_is_not_enough(self):
        head = [b + 0.01 for b in self.base]
        self.assertEqual(ab_pairs.claim_verdict(self.base, head, "higher"), "no gain")

    def test_lower_is_better(self):
        head = [b - 1.0 for b in self.base]
        self.assertEqual(ab_pairs.claim_verdict(self.base, head, "lower"), "gain")


class BoundVerdict(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5]

    def test_within_bound(self):
        head = [v * 1.05 for v in self.base]
        self.assertEqual(ab_pairs.bound_verdict(self.base, head, "lower", 0.1), "within bound")

    def test_regressed_past_the_bound(self):
        head = [v * 1.2 for v in self.base]
        self.assertEqual(ab_pairs.bound_verdict(self.base, head, "lower", 0.1), "regressed")
        head = [v * 0.8 for v in self.base]
        self.assertEqual(ab_pairs.bound_verdict(self.base, head, "higher", 0.1), "regressed")

    def test_unresolved_when_the_base_spreads_past_the_bound(self):
        base = [1.0, 2.0, 1.0, 2.0]
        self.assertEqual(ab_pairs.bound_verdict(base, base, "lower", 0.25), "unresolved")

    def test_a_wide_base_spread_resolves_when_every_head_run_is_better(self):
        base = [1.0, 2.0, 1.0, 2.0]
        self.assertEqual(ab_pairs.bound_verdict(base, [0.5, 0.6, 0.7, 0.8], "lower", 0.25),
                         "within bound")

    def test_improvement_is_within_bound(self):
        head = [v * 0.5 for v in self.base]
        self.assertEqual(ab_pairs.bound_verdict(self.base, head, "lower", 0.1), "within bound")


@unittest.skipUnless(in_git_checkout(), "exports need a git checkout")
class Export(unittest.TestCase):
    def test_resolves_revisions_to_full_commit_hashes(self):
        commit = ab_pairs.resolve("HEAD")
        self.assertRegex(commit, "^[0-9a-f]{40}$")
        self.assertEqual(ab_pairs.resolve(commit[:12]), commit)

    def test_names_the_tree_after_the_commit_and_reuses_only_a_stamped_one(self):
        commit = ab_pairs.resolve("HEAD")
        with tempfile.TemporaryDirectory() as workdir:
            tree = ab_pairs.export(commit, workdir)
            self.assertEqual(tree, os.path.join(workdir, commit))
            self.assertTrue(os.path.isfile(os.path.join(tree, "scripts", "ab_pairs.py")))
            marker = os.path.join(tree, "marker")
            open(marker, "w").close()
            self.assertEqual(ab_pairs.export(commit, workdir), tree)
            self.assertTrue(os.path.exists(marker))
            # A stamp naming another commit, or none (an interrupted export),
            # sends the tree back through git archive.
            with open(os.path.join(tree, ab_pairs.STAMP), "w") as f:
                f.write("0" * 40 + "\n")
            self.assertEqual(ab_pairs.export(commit, workdir), tree)
            self.assertFalse(os.path.exists(marker))
            with open(os.path.join(tree, ab_pairs.STAMP)) as f:
                self.assertEqual(f.read().strip(), commit)


class Record(unittest.TestCase):
    declared = [
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "nn.bwd_ms.conv2d", "unit": "ms", "better": "lower"},
    ]
    args = argparse.Namespace(workload="pipeline", trace=0, seconds=45.0, seeds="5-8",
                              claim="work_per_s")
    commits = {"base": "a" * 40, "head": "b" * 40}

    def entry(self, head_digest="d1"):
        values = {
            "base": {"work_per_s": [10.0, 11.0, 12.0, 13.0],
                     "peak_rss_mb": [20.0, 20.0, 20.0, 20.0], "nn.bwd_ms.conv2d": []},
            "head": {"work_per_s": [14.0, 15.0, 16.0, 17.0],
                     "peak_rss_mb": [19.0, 19.0, 19.0, 19.0], "nn.bwd_ms.conv2d": []},
        }
        probes = {"base": [50.0, 52.0, 51.0, 49.0], "head": [48.0, 50.0, 60.0, 50.0]}
        digests = [(5, {"pipeline decision log": "d1"},
                    {"pipeline decision log": head_digest})]
        return ab_pairs.record_entry(self.args, self.commits, self.declared, values,
                                     probes, {"base": 0, "head": 1}, digests)

    def test_holds_revisions_seeds_medians_quartiles_probes_and_verdicts(self):
        e = self.entry()
        self.assertEqual((e["base"], e["head"]), ("a" * 40, "b" * 40))
        self.assertEqual((e["workload"], e["trace"], e["seeds"]), ("pipeline", 0, [5, 6, 7, 8]))
        w = e["metrics"]["work_per_s"]
        self.assertEqual(w["base"], {"median": 11.5, "q1": 10.75, "q3": 12.25})
        self.assertEqual((w["wins"], w["pairs"], w["verdict"]), (4, 4, "claim: gain"))
        self.assertEqual(e["metrics"]["peak_rss_mb"]["verdict"], "within bound")
        self.assertNotIn("nn.bwd_ms.conv2d", e["metrics"])  # no runs, no row
        self.assertEqual(e["probe_ms"]["head"]["runs"], [48.0, 50.0, 60.0, 50.0])
        self.assertEqual(e["probe_ms"]["head"]["median"], 50.0)
        self.assertEqual(e["failures"], {"base": 0, "head": 1})
        self.assertTrue(e["digests_equal"])
        self.assertFalse(self.entry(head_digest="d2")["digests_equal"])
        self.assertEqual(e["host"], ab_pairs.host_cpu())

    def test_appends_sets_under_one_label_per_change(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_trajectory.json")
            ab_pairs.append_record(path, "PR 1", self.entry())
            ab_pairs.append_record(path, "PR 2", self.entry())
            ab_pairs.append_record(path, "PR 1", self.entry(head_digest="d2"))
            with open(path) as f:
                trajectory = json.load(f)
            self.assertEqual([r["label"] for r in trajectory["records"]], ["PR 1", "PR 2"])
            sets = trajectory["records"][0]["sets"]
            self.assertEqual([s["digests_equal"] for s in sets], [True, False])
            self.assertEqual(os.listdir(tmp), ["BENCH_trajectory.json"])


class HostCpu(unittest.TestCase):
    CPUINFO = ("processor\t: 0\nvendor_id\t: GenuineIntel\ncpu family\t: 6\n"
               "model\t\t: 207\nmodel name\t: Intel(R) Xeon(R) Processor\n"
               "flags\t\t: fpu avx2 fma avx512f avx512dq avx512vl\n\n"
               "processor\t: 1\nmodel name\t: Other\nflags\t\t: fpu\n")

    def parse(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cpuinfo")
            with open(path, "w") as f:
                f.write(text)
            return ab_pairs.host_cpu(path)

    def test_reads_the_first_processors_model_and_avx512f(self):
        self.assertEqual(self.parse(self.CPUINFO),
                         {"model": "Intel(R) Xeon(R) Processor (family 6 model 207)",
                          "avx512f": True})

    def test_a_host_without_avx512f(self):
        text = self.CPUINFO.replace(" avx512f avx512dq avx512vl", "")
        self.assertFalse(self.parse(text)["avx512f"])
        # avx512fp16 alone is not avx512f.
        self.assertFalse(self.parse(text.replace("fma", "fma avx512fp16"))["avx512f"])

    def test_a_missing_file_is_unknown(self):
        self.assertEqual(ab_pairs.host_cpu("/nonexistent/cpuinfo"),
                         {"model": "unknown", "avx512f": None})


class Probe(unittest.TestCase):
    def test_times_a_fixed_loop(self):
        self.assertGreater(ab_pairs.probe_ms(1000), 0.0)


class Seeds(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(ab_pairs.parse_seeds("701-703,9"), [701, 702, 703, 9])


if __name__ == "__main__":
    unittest.main()
