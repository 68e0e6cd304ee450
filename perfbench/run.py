#!/usr/bin/env python3
"""Build and run the end-to-end cluster benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/cluster_bench.exe from
source with dune (release profile, build directory .bench_build, dune's
shared cache off, so nothing is read or written outside the checkout),
then runs it with the same arguments.  Its standard output passes through
unchanged; the last line is the JSON result.  Exits non-zero, printing no
result, when the sources or the toolchain are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "cluster_bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib/server/server.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s not found: run from the root of a full checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet",
         "./perfbench/cluster_bench.exe"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
