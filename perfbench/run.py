#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload spec-epc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every argument is passed to the benchmark program (perfbench/perfbench.ml);
see perfbench/README.md. The program is built in release mode into
.bench_build/ inside the checkout, with the dune cache off, so the
benchmark reads and writes nothing outside the checkout. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error.

--selftest checks that the correctness check bites: it runs one workload
with every scheme wrapped by the `elide-checks` fault and succeeds only if
the benchmark then reports failed units and exits non-zero.
"""

import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("run from the root of a full checkout (missing %s)" % path)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def source_id():
    """The commit, or a hash of the sources when the checkout has no git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def bench_cmd(args):
    return [EXE, "--commit", source_id()] + args


def selftest():
    cmd = bench_cmd(["--workload", "phoenix-mt", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--inject", "elide-checks"])
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    failed, attempted = result.get("failed", 0), result.get("attempted", 0)
    print("selftest: elide-checks injected, exit %d, error_rate %d/%d"
          % (r.returncode, failed, attempted))
    if r.returncode != 0 and failed > 0 and not result.get("correct", True):
        print("selftest: ok, the correctness check caught the fault")
        return 0
    print("selftest: FAILED, the fault went unnoticed")
    return 1


def main():
    check_checkout()
    build()
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.exit(selftest())
    sys.exit(subprocess.run(bench_cmd(args)).returncode)


if __name__ == "__main__":
    main()
