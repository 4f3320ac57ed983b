#!/usr/bin/env python3
"""Append one line to the cross-commit performance trajectory.

Usage (from the repository root; `make trajectory` runs exactly this):

    python3 perf/trajectory.py [--root DIR]

The line is tab-separated:

* the short commit hash of ROOT's HEAD, suffixed `-dirty` when a tracked
  file other than perf/trajectory.tsv differs from it (a line taken before
  the change is committed: relabel it with that commit once it exists);
* for every workload in ROOT/BENCHMARK.json, the median `host_ops_per_s`
  over seeds 1, 2 and 3 of `python3 hostbench/run.py --workload W --seed S
  --seconds N --trace 0`, where N is BENCHMARK.json's `run_seconds`;
* `make loc`;
* the number of tier-1 tests that pass under `cargo test -q`.

ROOT defaults to this checkout; pointing it at another checkout (say, the
parent commit in a separate `git clone`) records that commit's line. Lines
always go to perf/trajectory.tsv of this checkout, whose header is written
when the file does not exist yet. Nothing under hostbench/ is changed.
Host rates depend on the machine, so compare lines taken on one host.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "trajectory.tsv")
SEEDS = (1, 2, 3)


def run(cmd, root):
    """Runs `cmd` in `root` and returns its standard output."""
    result = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.exit(f"trajectory: {' '.join(cmd)} failed ({result.returncode})")
    return result.stdout


def host_rate(root, workload, seed, seconds):
    """One untraced hostbench run's host_ops_per_s."""
    out = run(
        [
            "python3", "hostbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        root,
    )
    result = json.loads(out.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"trajectory: {workload} seed {seed} did not run cleanly")
    return result["metrics"]["host_ops_per_s"]["value"]


def commit_label(root):
    """ROOT's short HEAD hash, `-dirty` if its tracked code has changed."""
    commit = run(["git", "rev-parse", "--short=7", "HEAD"], root).strip()
    clean = subprocess.run(
        ["git", "diff", "--quiet", "HEAD", "--", ".", ":!perf/trajectory.tsv"],
        cwd=root,
    )
    return commit if clean.returncode == 0 else f"{commit}-dirty"


def tier1_passed(root):
    """Tests passed across every suite of `cargo test -q`."""
    out = run(["cargo", "test", "-q"], root)
    return sum(int(n) for n in re.findall(r"test result: \w+\. (\d+) passed", out))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE))
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    commit = commit_label(root)
    rates = [
        statistics.median(host_rate(root, w, s, seconds) for s in SEEDS)
        for w in workloads
    ]
    loc = run(["make", "-s", "loc"], root).strip()
    tests = tier1_passed(root)

    header = ["commit"] + [f"{w}.host_ops_per_s" for w in workloads] + ["loc", "tier1_tests"]
    line = [commit] + [f"{r:.0f}" for r in rates] + [loc, str(tests)]
    new_file = not os.path.exists(OUT)
    with open(OUT, "a") as f:
        if new_file:
            f.write("\t".join(header) + "\n")
        f.write("\t".join(line) + "\n")
    print("\t".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
