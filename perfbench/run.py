#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solver_chain|ns_protocol|osip_campaign \
        --seed N --seconds S --trace 0|1 [--gen-seed N]

Builds perfbench/bench.exe from the sources of the checkout this file
sits in (release profile, build directory _perfbench_build, no shared
dune cache), then runs it with the same arguments. The build log goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
with the benchmark's status, or nonzero without a result when the
sources are missing, the build fails or a step overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_perfbench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd in ROOT; kill it if it overruns. Returns its exit status."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        return 124


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s missing under %s; nothing to build\n" % (needed, ROOT))
            return 2
    build = ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
             "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    status = run(build, BUILD_TIMEOUT_S, sys.stderr)
    if status != 0:
        sys.stderr.write("perfbench: build failed (status %d)\n" % status)
        return status
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
