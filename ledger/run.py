#!/usr/bin/env python3
"""Build the ledger benchmark from source and run one workload.

Run from the repository root:

    python3 ledger/run.py --workload point --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (ledger/go.mod) that builds against the
repository's module through a replace directive, so it needs the program's
sources beside it; without them the build fails and this script exits 2.
Build outputs, the Go build cache and the benchmark's scratch files all go
to $CARGO_TARGET_DIR (default .bench_build) under the current directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    work = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        XDG_CONFIG_HOME=os.path.join(work, "config"),
    )
    binary = os.path.join(work, "ledger")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("ledger: build failed; the benchmark needs the repository's sources", file=sys.stderr)
        sys.exit(2)
    sys.stdout.flush()
    os.execve(binary, [binary, "--work", work] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
