#!/usr/bin/env python3
"""Wall-clock benchmark of the gpuddt simulator.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|steady|mix --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
simulator from src/ next to bench.cpp) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload for S seconds. The binary
checks every delivered byte against the host reference engine and prints
each metric with its unit and clock; the last stdout line is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Build output goes to stderr. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "steady", "mix")
BENCH_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds incrementally; returns the binary path."""
    bdir = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4",
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def run_bench(binary, args, timeout=BENCH_TIMEOUT_S):
    """Runs the binary to completion; returns (exit code, stdout text)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The JSON result on the last stdout line."""
    lines = stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError("benchmark printed no result line")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("run.py: run from the repository root (src/ not found)",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir(), "out")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--report-dir", out_dir]
    if a.trace:
        args += ["--spans-out",
                 os.path.join(out_dir, f"spans-{a.workload}.json")]
    try:
        code, stdout = run_bench(binary, args)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if code != 0:
        sys.stderr.write(stdout)
        print(f"run.py: benchmark exited with {code}", file=sys.stderr)
        return 1
    try:
        result_of(stdout)
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
