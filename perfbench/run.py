#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload wgs --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 20
    python3 perfbench/run.py compare .bench_build/results/a.json b.json

--workload all runs every workload named in BENCHMARK.json in turn, each in
its own process so that peak memory stays per workload. Everything the build
and the runs leave behind (Go build cache, binary, results, traces) stays
under .bench_build/ at the repository root. A run's result JSON is the last
line it prints; the build's own output goes to standard error.
"""
import json
import os
import subprocess
import sys


def workload_args(argv, root):
    """Expand --workload all into one argument list per workload."""
    argv = [x for a in argv for x in (a.split("=", 1) if a.startswith("-") and "=" in a else [a])]
    for i, a in enumerate(argv):
        if a in ("--workload", "-workload") and i + 1 < len(argv) and argv[i + 1] == "all":
            with open(os.path.join(root, "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            return [argv[:i + 1] + [n] + argv[i + 2:] for n in names]
    return [argv]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    state = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gomodcache", "tmp"):
        os.makedirs(os.path.join(state, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(state, "gocache"),
        GOMODCACHE=os.path.join(state, "gomodcache"),
        GOTMPDIR=os.path.join(state, "tmp"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
    )
    binary = os.path.join(state, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    for args in workload_args(sys.argv[1:], root):
        code = subprocess.run([binary] + args, cwd=root, env=env).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
