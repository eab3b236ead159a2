#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve|flow|sim --seed N --seconds S --trace 0|1

The Go toolchain's cache, temporary files and the binary all go under
.bench_build/ in the repository root, so a run reads and writes only inside
the checkout. The arguments are passed to the benchmark binary unchanged;
its last line of output is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840  # a cold toolchain cache compiles every dependency
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    try:
        built = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=os.path.join(ROOT, "perfbench"),
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
