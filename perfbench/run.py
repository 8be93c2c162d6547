#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in perfbench/).

Run from the root of a checkout:

    python3 perfbench/run.py --workload tcp-8wk --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark. The program is built from the
checkout's sources into .bench_build/ (Go build cache included), so the
run reads and writes nothing outside the checkout. The last line of
standard output is the benchmark's JSON result. A failed build or run
exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(bench, "go.mod")):
        print("run.py: run from the checkout root (perfbench/go.mod not found)", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("run.py: the program's sources (go.mod, internal/) are not in this directory", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2

    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        # The go command keeps its telemetry counters under the user
        # config directory.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    try:
        # The benchmark's stdout passes straight through; its last line
        # is the result.
        proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
