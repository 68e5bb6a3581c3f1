#!/usr/bin/env python3
"""Build and run the barrier benchmark.

Run from the repository root:

    python3 barrierbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script compiles the benchmark package (barrierbench/, a module of its
own that uses the repository as a local replacement) into .bench_build/,
keeping the Go build cache, module cache and tool configuration there as
well, then runs it with the same arguments. The benchmark prints its JSON
result as the last line of standard output; the exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "barrierbench")
PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)))


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="-mod=mod -buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."], cwd=PACKAGE, env=go_env(), stdout=sys.stderr
    )
    if build.returncode != 0:
        print("barrierbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
