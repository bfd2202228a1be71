#!/usr/bin/env python3
"""The benchmark's own tests: unit tests, then a tiny run per workload.

    python3 perfbench/smoke_test.py

Run from the repository root. Builds and runs perfbench_test (the
percentile rule, seed determinism of streams and schedules, span self
time), then runs every workload briefly untraced and traced through
perfbench/run.py and asserts that the output check passed and that
exactly the metrics BENCHMARK.json names are printed, each with its
unit.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "2"


def run(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("FAIL: %s exited with %d" % (" ".join(cmd), r.returncode))
    return r.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    build = os.path.join(os.getcwd(), ".bench_build")

    # A first short run configures and builds .bench_build/.
    run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
         bench["workloads"][0]["name"], "--seed", "1", "--seconds", "0.5",
         "--trace", "0"])
    r = subprocess.run(["cmake", "--build", build, "--target",
                        "perfbench_test"], stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        sys.exit("FAIL: building perfbench_test")
    if subprocess.run([os.path.join(build, "perfbench_test")],
                      cwd=build).returncode != 0:
        sys.exit("FAIL: perfbench_test")

    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            out = run([sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w["name"], "--seed", "7", "--seconds",
                       SMOKE_SECONDS, "--trace", str(trace)])
            res = json.loads(out.strip().split("\n")[-1])
            tag = "%s trace=%d" % (w["name"], trace)
            before = len(failures)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (tag, sorted(res)))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append("%s: output check failed: correct=%s "
                                "failed=%s attempted=%s"
                                % (tag, res["correct"], res["failed"],
                                   res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got
                               if k in want[trace] and got[k] != want[trace][k])
                failures.append("%s: missing %s, extra %s, wrong units %s"
                                % (tag, missing, extra, units))
            if "output check:" not in out:
                failures.append("%s: no output-check line" % tag)
            print("ok  " if len(failures) == before else "FAIL", tag,
                  flush=True)
    if failures:
        print("\n".join(failures))
        return 1
    print("all smoke runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
