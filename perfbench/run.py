#!/usr/bin/env python3
"""Build and run the campaign-job benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark itself is perfbench/main.exe (OCaml, built here with dune
from the checkout's sources).  This script adds the set-up time: it
starts the program SETUP_REPEATS times in set-up-only mode and reports
the median wall time from process start to the instant the first job
could be timed as `setup_s`.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SETUP_REPEATS = 7
# The whole run must end within 180 s; the measured part of a run takes
# --seconds plus a few seconds of set-up and checks.
RUN_TIMEOUT = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an automode checkout "
             "(dune-project and lib/ not found)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    if r.returncode != 0:
        fail("build failed")


def setup_seconds(workload, seed, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.time()
        r = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, timeout=60)
        ready = r.stdout.split()
        if r.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
            fail("set-up failed")
        times.append(float(ready[1]) - t0)
    return statistics.median(times)


def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (exit code, result dict or None)."""
    setup = (setup_seconds(workload, seed, 1 if smoke else SETUP_REPEATS)
             if trace == 0 else None)
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    r = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT)
    lines = r.stdout.strip().splitlines()
    if not lines:
        return r.returncode or 1, None
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return r.returncode, result


def self_test():
    """One job per workload, untraced and traced: every metric named in
    BENCHMARK.json is printed with its unit, every report matches its
    reference, and traced reports equal untraced ones byte for byte."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(w["name"], 1, 1, trace, smoke=True)
            where = "%s --trace %d" % (w["name"], trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(where + ": failed (exit %d)" % code)
                continue
            for m in bench[group]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(where + ": missing " + m["name"])
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s, not %s"
                                    % (where, m["name"], got["unit"], m["unit"]))
            print("self-test: %s ok" % where, file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if not a.workload:
        fail("--workload is required")
    code, result = run(a.workload, a.seed, a.seconds, a.trace)
    if result is None:
        fail("no result")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
