#!/usr/bin/env python3
"""Build and run the mt4g-sim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload nv-l2 --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --self-test

Every call first configures and (incrementally) builds perfbench/ — the
library from src/ plus the mt4g_bench binary — in Release mode under
.bench_build/, then runs mt4g_bench with the same arguments. Its
last stdout line is the result JSON; scratch state and trace artifacts go to
.bench_out/. Build failures print the build log tail to stderr and exit 1.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LOG = os.path.join(BUILD, "perfbench-build.log")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "mt4g_bench"]]
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(LOG) as text:
                    tail = text.read()[-4000:]
                sys.stderr.write(tail + "\nperfbench: build failed (%s)\n"
                                 % " ".join(step))
                return None
    return os.path.join(BUILD, "mt4g_bench")


def main():
    binary = build()
    if binary is None:
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
