#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

    python3 perfbench/run.py --workload classify_fabnet --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark from source into .bench_build/ (Release);
later runs only re-check the build. The last line of stdout is the
result JSON: {"correct", "attempted", "failed", "metrics"}. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run, whose Chrome trace-event JSON lands in .bench_build/traces/.

An untraced run is SUBRUNS sub-runs, each a fresh process measuring
seconds / SUBRUNS on its own stream drawn from the seed; the metrics
are medians over the sub-runs (see perfbench/README.md, "Steadiness").
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ["classify_fabnet", "overload_fabnet", "decode_transformer",
             "longdoc_dense"]
SUBRUNS = 5
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to %s; run from a full checkout" % HERE,
             2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                  "--target"] + targets)
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def clean_env():
    # Runs are comparable only without tuning caches, forced ISA levels
    # or thread overrides from the caller's environment.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FABNET_")}


def run_bin(args):
    try:
        r = subprocess.run([BIN] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, env=clean_env(),
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(args))
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        fail("perfbench exited with %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line from perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]", 2)

    build(["perfbench"])

    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        info, result = run_bin(common + [
            "--seconds", repr(a.seconds), "--trace-out",
            os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))])
        print("\n".join(info))
    else:
        parts_dir = os.path.join(BUILD, "parts")
        os.makedirs(parts_dir, exist_ok=True)
        parts = []
        for i in range(SUBRUNS):
            part = os.path.join(parts_dir, "%s-seed%d-%d.txt"
                                % (a.workload, a.seed, i))
            info, _ = run_bin(common + [
                "--seconds", repr(a.seconds / SUBRUNS), "--part", str(i),
                "--part-out", part])
            print("\n".join(info))
            parts.append(part)
        _, result = run_bin(["--aggregate"] + parts)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
