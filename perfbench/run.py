#!/usr/bin/env python3
"""The repository benchmark command.

Builds perfbench (the C++ harness in this directory, which compiles the
avcp libraries from ../src) and runs one workload as one closed-loop
process, or every workload one after another.

    python3 perfbench/run.py --workload plant --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: with --trace 0
every end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric (a layer off the workload's path, per perfbench/layers.json, reads
0). The lines before it are a human-readable table with sample counts and
the trajectory digest. Build output goes to standard error. The exit code
is non-zero when the build or the run fails, without a result line; a run
whose output checks fail still prints its result, with "correct": false.
With --all the last line is {"correct": ...} over every workload and the
exit code is 1 unless all are correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
WORKLOADS = ("plant", "fleet", "service", "chaos")
RUN_TIMEOUT_S = 170


def load_definition():
    """BENCHMARK.json, and the per-layer map keyed by metric name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    return bench, layers


def build():
    """Configures once, then rebuilds incrementally (a no-op when current)."""
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace):
    """One workload in its own process; returns the harness's JSON document."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0", "--scratch", SCRATCH],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
        check=True)

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate key in harness output: %s" % keys)
        return dict(pairs)

    return json.loads(proc.stdout, object_pairs_hook=no_duplicates)


def contract_result(doc, workload, trace, bench, layers):
    """The result line: exactly the declared metrics, value + unit."""
    correct = bool(doc["correct"]) and doc["failed"] == 0
    got = doc["metrics"]
    metrics = {}
    if not trace:
        expected = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if set(got) != set(expected):
            correct = False
        for name, unit in expected.items():
            if name in got:
                metrics[name] = {"value": got[name]["value"], "unit": unit}
    else:
        expected = {m["name"]: m["unit"] for m in bench["per_layer"]}
        if set(got) - set(expected):
            correct = False
        for name, unit in expected.items():
            if (workload in layers[name]["measured_on"]) != (name in got):
                correct = False
            value = got[name]["value"] if name in got else 0.0
            metrics[name] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        if name in got and got[name]["unit"] != m["unit"]:
            correct = False
    return {"correct": correct, "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def print_table(doc):
    print("# %s seed=%s trace=%s digest=%s (first %d rounds) attempted=%d failed=%d correct=%s"
          % (doc["workload"], doc["seed"], int(doc["trace"]), doc["digest"],
             doc["digest_rounds"], doc["attempted"], doc["failed"], doc["correct"]))
    for name, m in sorted(doc["metrics"].items()):
        print("#   %-34s %16.6g %-6s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    for name, m in sorted(doc["raw"].items()):
        print("#   %-34s %16.6g %-6s (uncalibrated)" % ("raw." + name, m["value"], m["unit"]))
    for err in doc["errors"]:
        print("#   check failed: %s" % err)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="sets the timed round count (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench, layers = load_definition()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.all else (args.workload,)
    ok = True
    result = None
    for workload in workloads:
        try:
            doc = run_binary(workload, args.seed, args.seconds, bool(args.trace))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError,
                OSError) as e:
            print("perfbench: %s run failed: %s" % (workload, e), file=sys.stderr)
            return 1
        print_table(doc)
        result = contract_result(doc, workload, bool(args.trace), bench, layers)
        ok = ok and result["correct"]
    if not args.all:
        print(json.dumps(result))
        return 0
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
