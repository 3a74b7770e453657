#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 45 --trace 0

Run from the repository root. The build (Release, only the libraries
the benchmark links) goes to .bench_build/perfbench; the first run
configures and compiles, later runs only re-check it. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. Traced runs (--trace 1) also write their spans to
.bench_build/trace-<workload>-<seed>.json.

Exit status: the benchmark's own (0 ok, 1 a correctness check failed,
2 error), or 3 when the build fails or the run overruns its time.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["serve_mix", "rsu_device"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree next to perfbench/ (src/CMakeLists.txt "
             "missing); run from a full checkout", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e), 3)
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode), 3)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--corrupt-label", action="store_true",
                        help="flip one returned label; the run must fail")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("need --seed >= 0 and 1 <= --seconds <= 600", 2)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.corrupt_label:
        cmd.append("--corrupt-label")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark overran %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
