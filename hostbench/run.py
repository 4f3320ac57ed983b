#!/usr/bin/env python3
"""Build and run the DARTH-PUM host benchmark.

Usage (from the repository root):

    python3 hostbench/run.py --workload serve-aes --seed 1 --seconds 20 --trace 0

Builds the `hostbench` package (release profile, offline) and runs it with
the given arguments. Build output goes to standard error; the benchmark's
own standard output is passed through, so its last line is the result
object. The build honours CARGO_TARGET_DIR (resolved against the
repository root) and any CARGO_PROFILE_RELEASE_* overrides, e.g.
CARGO_PROFILE_RELEASE_OPT_LEVEL=1 for the sensitivity check in README.md.

Exits non-zero without printing a result if the build fails, for example
when the workspace crates the benchmark depends on are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds and then verifies; anything far beyond that
# is a hang, and the benchmark must end within three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark and returns the binary's path, or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "hostbench")
    return binary if os.path.isfile(binary) else None


def main():
    binary = build()
    if binary is None:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    try:
        result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hostbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
