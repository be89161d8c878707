#!/usr/bin/env python3
"""Self-test of the TER-iDS stream benchmark.

Runs every workload of BENCHMARK.json at the tiny size, untraced and
traced, through the same output checks as a full run, and checks that the
result line carries every metric BENCHMARK.json names, with its unit. Also
checks BENCHMARK.json and manifest.json against each other and that the
benchmark refuses to report from a directory without the engine sources.

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(BENCH_DIR, "manifest.json")) as f:
    MANIFEST = json.load(f)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds",
           str(SPEC["run_seconds"]), "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(sorted(SPEC), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        for w in SPEC["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [e["name"] for e in SPEC["workloads"] + metrics]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertLessEqual(len(name), 64)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT_RE)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_manifest_covers_spec(self):
        layer_names = {m["name"] for m in SPEC["per_layer"]}
        e2e_names = {m["name"] for m in SPEC["end_to_end"]}
        workload_names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(MANIFEST["per_layer"]), layer_names)
        for name, entry in MANIFEST["per_layer"].items():
            self.assertTrue(set(entry["moves"]) <= e2e_names, name)
            self.assertTrue(set(entry["on"]) <= workload_names, name)
        self.assertEqual(set(MANIFEST["workloads"]), workload_names)
        self.assertNotEqual(MANIFEST["held_out_seed"],
                            MANIFEST["default_seed"])


class WorkloadTest(unittest.TestCase):
    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        stamp = [l for l in lines if l.startswith("# stamp ")]
        self.assertEqual(len(stamp), 1)
        stamp = json.loads(stamp[0][len("# stamp "):])
        for key in ("nproc", "compiler", "build_type", "commit"):
            self.assertIn(key, stamp)
        self.assertTrue(all(stamp["checks"].values()), stamp["checks"])
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        for m in SPEC[section]:
            self.assertIn(m["name"], metrics)
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
        for name, entry in metrics.items():
            self.assertRegex(name, NAME_RE)
            self.assertRegex(entry["unit"], UNIT_RE)
        return stamp, metrics

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                _, e2e = self.check_result(run(w["name"], 0), "end_to_end")
                for m in SPEC["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                stamp, layers = self.check_result(run(w["name"], 1),
                                                  "per_layer")
                v = {k: e["value"] for k, e in layers.items()}
                if stamp["threads"] == 1:
                    # The cost ledger closes against the arrival span.
                    parts = (v["index.cdd_select_us"] +
                             v["imputation.impute_us"] + v["er.er_us"] +
                             v["stream.maintain_us"] +
                             v["core.unaccounted_us"])
                    self.assertAlmostEqual(parts, v["core.arrival_us"],
                                           delta=1e-6 * v["core.arrival_us"])
                else:
                    self.assertGreater(v["exec.items.refine"], 0)
                self.assertGreater(v["trace.overhead_ratio"], 0)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
