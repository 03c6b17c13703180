#!/usr/bin/env python3
"""Steadiness check: do two interleaved sets of runs of the same code agree?

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10]
                                    [--first-seed 1] [--seconds S]

Runs each workload --runs times per set as two interleaved sets, A and B,
pair by pair (A B, then B A, ...), so that host drift lands on both sets
alike -- the same way a parent and a change are compared. Pair i uses seed
first_seed + i in both sets. For every end-to-end metric it prints each
set's median and quartiles and its spread, (q3 - q1) / median, and checks:
  * each set's spread is within the metric's bound, and
  * neither set's median is worse than the other's by more than the bound,
using the bounds in BENCHMARK.json. It also checks that every run was
correct and that the output digest of a seed is identical in both sets.
Exits 1 if any check fails. Raw results go to .bench_build/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), done.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["digest"] = next((l.split("output=")[1] for l in lines
                             if l.startswith("digest ")), None)
    result["wall_s"] = wall_s
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or names
    metrics = bench["end_to_end"]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                r = run_once(w, seed, args.seconds, 0)
                r["seed"] = seed
                runs[w][side].append(r)
                print("run %-18s set %s seed %-4d wall %.1fs correct=%s %s" % (
                    w, side, seed, r["wall_s"], r["correct"], " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in r["metrics"].items())), flush=True)

    ok = True
    for w in workloads:
        print("\n== %s" % w)
        for side in ("A", "B"):
            for r in runs[w][side]:
                if not r["correct"] or r["failed"] != 0:
                    ok = False
                    print("  FAIL: set %s seed %d incorrect" % (side, r["seed"]))
        for a, b in zip(runs[w]["A"], runs[w]["B"]):
            if a["digest"] != b["digest"]:
                ok = False
                print("  FAIL: seed %d output digests differ: %s vs %s" % (
                    a["seed"], a["digest"], b["digest"]))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {}
            for side in ("A", "B"):
                q1, med, q3 = quartiles(
                    [r["metrics"][name]["value"] for r in runs[w][side]])
                stats[side] = (q1, med, q3, (q3 - q1) / med)
            worse = {s: (stats[s][1] - stats[o][1]) / stats[o][1]
                     * (1 if m["better"] == "lower" else -1)
                     for s, o in (("A", "B"), ("B", "A"))}
            spread_ok = all(stats[s][3] <= bound for s in stats)
            median_ok = all(worse[s] <= bound for s in worse)
            steady = all(stats[s][3] < bound / 3 for s in stats)
            ok = ok and spread_ok and median_ok
            print("  %-15s bound %.2f | A med %.5g [%.5g, %.5g] spread %.3f | "
                  "B med %.5g [%.5g, %.5g] spread %.3f | shift %+.3f | %s%s" % (
                      name, bound, stats["A"][1], stats["A"][0], stats["A"][2],
                      stats["A"][3], stats["B"][1], stats["B"][0],
                      stats["B"][2], stats["B"][3], worse["B"],
                      "agree" if spread_ok and median_ok else "DISAGREE",
                      "" if steady else " (spread above bound/3)"))

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steadiness.json"), "w") as f:
        json.dump(runs, f, indent=1)
    print("\nsteadiness: %s" % ("sets agree" if ok else "SETS DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
