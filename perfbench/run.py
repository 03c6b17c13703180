#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
.bench_build/ (the program's libraries from src/ plus perfbench/); later
calls let cmake rebuild what changed. The binary's output is passed through:
the last stdout line is the JSON result, in which setup_s is replaced by the
fastest of five cold setups (see SETUPS_AROUND). Build output goes to stderr.
Workload names and metrics are listed in BENCHMARK.json and
perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Cold setups per run: SETUPS_AROUND setup-only processes before the
# measuring process, its own setup, and SETUPS_AROUND after it, so the
# samples span the whole run. setup_s is the fastest of them: setups of
# the same process vary by up to 50% within a run on a noisy host, and
# their minimum varied about a fifth as much across seeds as their median.
SETUPS_AROUND = 2


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                  "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def setup_only(cmd):
    """Runs a process that only sets the workload up; returns its setup_s."""
    done = subprocess.run(cmd + ["--setup-only", "1"], cwd=ROOT,
                          capture_output=True, text=True)
    last = done.stdout.strip().splitlines()[-1:]
    if done.returncode != 0 or not last or not last[0].startswith("setup_s "):
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit("perfbench: setup-only run failed")
    return float(last[0].split()[1])


def commit_id():
    """The git commit when there is one, else a hash of the program sources
    (a checkout without .git still gets a stable identity)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    run_cmd = cmd + ["--commit", commit_id(),
                     "--trace-dir", os.path.join(BUILD_DIR, "traces")]
    sys.stdout.flush()
    if args.trace == "1":
        return subprocess.run(run_cmd, cwd=ROOT).returncode

    setups = [setup_only(cmd) for _ in range(SETUPS_AROUND)]
    done = subprocess.run(run_cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 1
    result = json.loads(lines[-1])
    setups.append(result["metrics"]["setup_s"]["value"])
    setups += [setup_only(cmd) for _ in range(SETUPS_AROUND)]
    result["metrics"]["setup_s"]["value"] = min(setups)
    for line in lines[:-1]:
        print(line)
    print("detail setup_s_samples=[%s]" % ",".join("%.4f" % t for t in setups))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
