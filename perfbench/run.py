#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload registry|simulate|serve \
        --seed N --seconds S --trace 0|1

The Go program in perfbench/ is built from source into .bench_build/
(binary, Go build cache and temporary files all stay inside the
checkout, and nothing is fetched), then run. Its last line of standard
output is the JSON result; progress and failed checks go to standard
error. A build failure exits with status 2 and prints no result.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("registry", "simulate", "serve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPROXY="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    src = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", exe, "."],
                           cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [exe, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-root", root]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
