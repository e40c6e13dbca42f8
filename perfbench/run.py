#!/usr/bin/env python3
"""Build the KV service benchmark from source and run it.

    python3 perfbench/run.py --workload update-churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout of the repository. The Go build keeps its
cache, temporary files and the binary under .bench_build/ in the
checkout; a traced run (--trace 1) also writes its spans and events to
.bench_build/trace/. The last line of standard output is the benchmark's
JSON result; build output goes to standard error.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark's own run is bounded by --seconds plus one round; this
# only stops a hung run.
GRACE_SECONDS = 120


def build():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    # Everything the build needs is in the checkout: no module download,
    # no toolchain switch.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="-mod=readonly", GOWORK="off")
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=SRC, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: run from a checkout of the repository (no go.mod above perfbench/)", file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    seconds = 10.0
    for i, a in enumerate(args[:-1]):
        if a == "--seconds":
            try:
                seconds = float(args[i + 1])
            except ValueError:
                pass
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--trace-out", os.path.join(BUILD, "trace")]
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
