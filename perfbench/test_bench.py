#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_bench.py

Builds dhc_perfbench like run.py does, then checks that trial lists are a pure
function of the seed, that BENCHMARK.json's metric names and units are well
formed, that both run modes attempt exactly the listed trials and print exactly
the declared metrics, and that the benchmark refuses to run without the library
sources.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def list_trials(binary, workload, seed):
    out = subprocess.run([str(binary), "--list-trials", f"--workload={workload}", f"--seed={seed}"],
                         check=True, stdout=subprocess.PIPE).stdout
    return out, [json.loads(line) for line in out.decode().splitlines()]


class TrialListTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_same_seed_gives_identical_trial_list(self):
        for workload in run.WORKLOADS:
            first, trials = list_trials(self.binary, workload, 7)
            second, _ = list_trials(self.binary, workload, 7)
            self.assertEqual(first, second, workload)
            self.assertTrue(trials, workload)

    def test_different_seed_changes_every_graph_seed(self):
        for workload in run.WORKLOADS:
            _, a = list_trials(self.binary, workload, 7)
            _, b = list_trials(self.binary, workload, 8)
            self.assertEqual(len(a), len(b), workload)
            for x, y in zip(a, b):
                self.assertNotEqual(x["graph_seed"], y["graph_seed"], workload)
                strip = lambda t: {k: v for k, v in t.items() if k not in ("graph_seed", "algo_seed")}
                self.assertEqual(strip(x), strip(y), workload)


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = []
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class RunTest(unittest.TestCase):
    def run_bench(self, trace, cwd=run.ROOT):
        return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "async-lossy",
                               "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                              cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)

    def test_both_modes_print_the_declared_metrics(self):
        _, trials = list_trials(run.build(), "async-lossy", 1)
        for trace in (0, 1):
            proc = self.run_bench(trace)
            self.assertEqual(proc.returncode, 0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["attempted"], len(trials))
            declared = run.declared_metrics(trace)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_bench(0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
