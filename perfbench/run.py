#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig12|serve-open|release \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary and lmi-serve from source into .bench_build/
(the Go build cache lives there too, so nothing is written outside the
checkout), then runs the benchmark with the given arguments. The last
line of standard output is the JSON result. Exits nonzero, without a
result, when the repository sources are missing or the build fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at the repository root; the benchmark builds the repository from source\n")
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "XDG_CACHE_HOME": os.path.join(OUT, "cache"),
    })
    bindir = os.path.join(OUT, "bin")
    for d in (bindir, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    bench = os.path.join(bindir, "perfbench")
    serve = os.path.join(bindir, "lmi-serve")
    for out, pkg in ((bench, "."), (serve, "lmi/cmd/lmi-serve")):
        build = subprocess.run(["go", "build", "-trimpath", "-o", out, pkg], cwd=HERE, env=env,
                               stdout=sys.stderr)
        if build.returncode != 0:
            sys.stderr.write("perfbench: build of %s failed\n" % pkg)
            return 1
    args = [bench, "--out", OUT, "--lmi-serve", serve,
            "--ref", os.path.join(HERE, "ref")] + sys.argv[1:]
    child = subprocess.Popen(args, cwd=ROOT, env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
