#!/usr/bin/env python3
"""Build and run the cqjoin benchmark.

Run from the root of a cqjoin checkout:

    python3 perfbench/run.py --workload lib-sai --seed 1 --seconds 40 --trace 0

It builds the benchmark (a Go module in this directory that uses the
checkout's cqjoin sources) into .bench_build/, keeping the Go build cache
and every temporary file there too, then runs it. The last line of the
output is the JSON result; NOTES.md describes the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark itself stays well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no cqjoin sources at %s" % ROOT, file=sys.stderr)
        return 2
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        return build.returncode
    try:
        run = subprocess.run(
            [BINARY, "-workdir", os.path.join(BUILD, "work")] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
