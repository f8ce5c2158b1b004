#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources, then runs it.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The build lives in e2ebench/.build (configured once, then brought up to date
on every call, which is a no-op when nothing changed); scenario, trace and
span files go to e2ebench/.out. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, ".out")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 175


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("e2ebench: failed: " + " ".join(cmd))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    step(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs])


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    # The simulator reads NS_* variables (thread count, shard count, trace
    # loading); the benchmark fixes all of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NS_")}
    child = subprocess.Popen([BINARY, *sys.argv[1:], "--out-dir", OUT], env=env)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
