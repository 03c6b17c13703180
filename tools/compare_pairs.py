#!/usr/bin/env python3
"""Paired comparison of two checkouts on the perfbench workloads.

    python3 tools/compare_pairs.py OLD_CHECKOUT NEW_CHECKOUT
        [--workload NAME ...] [--pairs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--json PATH]

Runs each checkout's own perfbench/run.py (which builds that checkout's
.bench_build/ on first use) in interleaved pairs: pair i runs both sides on
seed first_seed + i, the old side first in even pairs and the new side first
in odd ones, so host drift lands on both sides alike. Workloads are taken
from NEW_CHECKOUT's BENCHMARK.json, run one after another.

For every workload and metric it prints each side's median and quartiles,
the new/old ratio of the medians, and the pairs the new side won (ties count
for neither side). A metric's "claim" column reads "yes" when the new side
won at least nine tenths of the pairs and the medians differ by more than the
old side's interquartile range -- the rule for claiming a gain from paired
runs on a noisy host. Higher-is-better metrics are read from BENCHMARK.json;
per-layer metrics of a traced run (--trace 1) use its per_layer list.

Exits 1 if any run fails, reports a failed request, or if a seed's output
digest differs between the two sides (traced runs print no digest). Raw
results go to --json if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns its parsed result."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s (in %s)\n%s" %
                 (" ".join(cmd), checkout, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["digest"] = next((l.split("output=")[1] for l in lines
                             if l.startswith("digest ")), None)
    result["wall_s"] = wall_s
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(name, better, old_vals, new_vals):
    """One table row: medians, quartiles, ratio, wins and the claim rule."""
    o1, o2, o3 = quartiles(old_vals)
    n1, n2, n3 = quartiles(new_vals)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for o, n in zip(old_vals, new_vals) if sign * (n - o) > 0)
    pairs = len(old_vals)
    claim = wins * 10 >= pairs * 9 and sign * (n2 - o2) > (o3 - o1)
    ratio = n2 / o2 if o2 else float("nan")
    return {"metric": name, "better": better,
            "old_median": o2, "old_q1": o1, "old_q3": o3,
            "new_median": n2, "new_q1": n1, "new_q3": n3,
            "ratio": ratio, "new_wins": wins,
            "pairs": pairs, "claim": claim}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkout of the parent (OLD_CHECKOUT)")
    parser.add_argument("new", help="checkout of the change (NEW_CHECKOUT)")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()
    old = os.path.abspath(args.old)
    new = os.path.abspath(args.new)
    with open(os.path.join(new, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    for w in workloads:
        if w not in names:
            sys.exit("unknown workload %r (want one of %s)" % (w, names))
    seconds = args.seconds or bench["run_seconds"]
    metric_list = bench["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metric_list}

    ok = True
    raw = {}
    for workload in workloads:
        runs = {"old": [], "new": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                checkout = old if side == "old" else new
                result = run_once(checkout, workload, seed, seconds,
                                  args.trace)
                result["seed"] = seed
                runs[side].append(result)
                if not result.get("correct", False) or result.get("failed"):
                    ok = False
                    print("FAIL %s %s seed %d: correct=%s failed=%s" %
                          (workload, side, seed, result.get("correct"),
                           result.get("failed")))
            # Traced runs print no digest line; untraced ones must match.
            d_old, d_new = runs["old"][-1]["digest"], runs["new"][-1]["digest"]
            if d_old is None and d_new is None:
                verdict = "none printed"
            elif d_old == d_new:
                verdict = "equal " + d_new
            else:
                ok = False
                verdict = "DIFFERS old=%s new=%s" % (d_old, d_new)
            print("%s seed %d (%s first): digest %s" %
                  (workload, seed, order[0], verdict), flush=True)
        raw[workload] = runs

        print("\n%s: %d pairs, %d s, trace %d" %
              (workload, args.pairs, seconds, args.trace))
        print("%-30s %12s %23s %12s %23s %7s %5s %5s" %
              ("metric", "old median", "old q1..q3", "new median",
               "new q1..q3", "ratio", "wins", "claim"))
        metrics = sorted(set(runs["old"][0]["metrics"]) &
                         set(runs["new"][0]["metrics"]))
        for name in metrics:
            if name not in better:
                continue
            old_vals = [r["metrics"][name]["value"] for r in runs["old"]]
            new_vals = [r["metrics"][name]["value"] for r in runs["new"]]
            row = summarize(name, better[name], old_vals, new_vals)
            print("%-30s %12.4g %11.4g..%-11.4g %12.4g %11.4g..%-11.4g "
                  "%7.3f %2d/%-2d %5s" %
                  (name, row["old_median"], row["old_q1"], row["old_q3"],
                   row["new_median"], row["new_q1"], row["new_q3"],
                   row["ratio"], row["new_wins"], row["pairs"],
                   "yes" if row["claim"] else "no"))
        print(flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
