#!/usr/bin/env python3
"""Tests of the benchmark itself (about three minutes on one core).

    python3 -m unittest perfbench/test_perfbench.py      # from the repo root

They run perfbench/run.py exactly as the benchmark command is run, with a
short --seconds (each run still makes its minimum number of rounds), and
check the contract: determinism of the trajectory digest per seed, digest
identity with tracing on and off, one value per declared metric, no
quantity reported under two names, and a clean refusal when the sources
are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plant", "fleet", "service", "chaos")
SECONDS = "0.5"
HEADER = re.compile(r"^# (\w+) seed=(\d+) trace=(\d) digest=([0-9a-f]{16}) ")

_cache = {}


def run(workload, seed, trace, repeat=0):
    """(exit code, last-line result, digest, stdout) of one run.py call."""
    key = (workload, seed, trace, repeat)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=300)
        lines = proc.stdout.strip().splitlines()
        digest = next(HEADER.match(l).group(4) for l in lines if HEADER.match(l))
        _cache[key] = (proc.returncode, json.loads(lines[-1]), digest, proc.stdout)
    return _cache[key]


def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    return bench, layers


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        bench, layers = definition()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        all_metrics = bench["end_to_end"] + bench["per_layer"]
        for m in all_metrics:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len({m["name"] for m in all_metrics}), len(all_metrics))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_layer_map_names_real_targets(self):
        bench, layers = definition()
        self.assertEqual(list(layers), [m["name"] for m in bench["per_layer"]])
        e2e = {m["name"] for m in bench["end_to_end"]}
        for name, layer in layers.items():
            self.assertEqual(set(layer), {"measured_on", "moves", "no_change_on"}, name)
            self.assertTrue(set(layer["measured_on"]) <= set(WORKLOADS), name)
            moved = set()
            for move in layer["moves"]:
                self.assertIn(move["metric"], e2e)
                self.assertTrue(set(move["workloads"]) <= set(layer["measured_on"]))
                moved |= set(move["workloads"])
            self.assertEqual(set(layer["no_change_on"]), set(WORKLOADS) - moved)


class RunTest(unittest.TestCase):
    def test_every_metric_emitted_once_per_workload(self):
        bench, layers = definition()
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            for w in WORKLOADS:
                code, result, _, out = run(w, 7, trace)
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                for m in declared:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                # The harness line per metric carries its sample count.
                for m in declared:
                    if trace == 0 or w in layers[m["name"]]["measured_on"]:
                        self.assertRegex(out, r"#   %s +\S+ +\S+ +n=\d+"
                                         % re.escape(m["name"]))

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            _, result, _, _ = run(w, 7, 0)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, "%s/%s" % (w, name))

    def test_same_seed_same_digest(self):
        self.assertEqual(run("plant", 7, 0)[2], run("plant", 7, 0, repeat=1)[2])

    def test_other_seed_other_digest(self):
        for w in WORKLOADS:
            self.assertNotEqual(run(w, 7, 0)[2], run(w, 8, 0)[2], w)

    def test_tracing_never_changes_the_trajectory(self):
        for w in WORKLOADS:
            self.assertEqual(run(w, 7, 0)[2], run(w, 7, 1)[2], w)
            self.assertTrue(run(w, 7, 1)[1]["correct"], w)

    def test_no_quantity_under_two_names(self):
        # setup_s (s) and recovery_ms (ms) are separate measurements: never
        # one timing printed twice. On fleet, which cannot checkpoint,
        # recovery replays the rounds before the crash point on top of a
        # rebuild, so it must exceed set-up.
        for w in WORKLOADS:
            m = run(w, 7, 0)[1]["metrics"]
            self.assertNotAlmostEqual(m["setup_s"]["value"] * 1e3, m["recovery_ms"]["value"],
                                      places=6, msg=w)
            values = [v["value"] for v in m.values()]
            self.assertEqual(len(values), len(set(values)), w)
        fleet = run("fleet", 7, 0)[1]["metrics"]
        self.assertGreater(fleet["recovery_ms"]["value"], fleet["setup_s"]["value"] * 1e3)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "plant", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
