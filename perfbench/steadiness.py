#!/usr/bin/env python3
"""Steadiness report: is the benchmark steady enough to gate on?

Runs the benchmark command of BENCHMARK.json ten times per workload, every
run with its own seed (101, 102, ... in run order), and prints for each
workload and end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median
against the metric's bound. With --sets 2 it makes a second set of runs of
the same code, on the seeds that follow, and also checks that the two
medians agree: the second differs from the first by at most the bound, in
either direction.

    python3 perfbench/steadiness.py              # one set
    python3 perfbench/steadiness.py --sets 2     # the acceptance check

Workloads are interleaved run by run, so slow drift of the machine lands on
every workload alike. Every spread is gated, setup_s included; a spread is
"tight" below a third of its bound. The uncalibrated wall-clock spreads are
listed after the table, to show what the machine-speed calibration removes.
Exit code 0 only when every run is correct with no failed operation, every
spread fits its bound, and (with two sets) every pair of medians agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 101


def run_once(bench, workload, seed):
    """(contract result, {raw metric: value}) of one benchmark run."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    raw = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "#" and parts[1].startswith("raw."):
            raw[parts[1][4:]] = float(parts[2])
    return json.loads(lines[-1]), raw


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {}  # (set, workload, metric) -> [values]
    raw_values = {}
    ok = True
    seed = FIRST_SEED
    for s in range(args.sets):
        for i in range(RUNS):
            for w in workloads:
                result, raw = run_once(bench, w, seed)
                for name, v in raw.items():
                    raw_values.setdefault((s, w, name), []).append(v)
                if not result["correct"] or result["failed"] != 0:
                    print("run %s seed %d: correct=%s failed=%d"
                          % (w, seed, result["correct"], result["failed"]))
                    ok = False
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        result["metrics"][m["name"]]["value"])
                seed += 1
            print("set %d run %d/%d done" % (s + 1, i + 1, RUNS), file=sys.stderr)

    print("%-8s %-21s %12s %12s %12s %7s %6s %s"
          % ("workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize(values[(s, w, name)]) for s in range(args.sets)]
            verdicts = []
            for st in sets:
                ok = ok and st["spread"] <= bound
                verdicts.append("tight" if st["spread"] < bound / 3 else
                                "fits" if st["spread"] <= bound else "TOO WIDE")
            if args.sets == 2:
                change = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
                agree = abs(change) <= bound
                ok = ok and agree
                verdicts[1] += "; medians %+.1f%% %s" % (100 * change,
                                                        "agree" if agree else "DISAGREE")
            for s, st in enumerate(sets):
                print("%-8s %-21s %12.6g %12.6g %12.6g %6.1f%% %5.0f%% %s"
                      % (w if s == 0 else "", name if s == 0 else "", st["q1"], st["median"],
                         st["q3"], 100 * st["spread"], 100 * bound, verdicts[s]))
    print("uncalibrated wall-clock spreads (not gated):")
    for (s, w, name), v in sorted(raw_values.items()):
        if name != "reference_tick_ms":
            print("  set %d %-8s %-21s %6.1f%%" % (s + 1, w, name, 100 * summarize(v)["spread"]))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
