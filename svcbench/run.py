#!/usr/bin/env python3
"""Build the service benchmark from source and run it (svcbench/README.md).

    python3 svcbench/run.py --workload kv-saturate --seed 1 --seconds 8 --trace 0
    python3 svcbench/run.py --test        # build and run the benchmark's tests

The first call configures and builds into .bench_build/svcbench (the optrec
library from src/ plus the benchmark program, Release); later calls rebuild
only what changed. Build output goes to stderr on failure only, so the last
stdout line stays the benchmark's JSON result. Exits non-zero without a result when src/
is missing, the build fails, or the run fails a correctness check.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("svcbench: '%s' failed with exit code %d"
                 % (" ".join(cmd), proc.returncode))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "tcp", "tcp_cluster.h")):
        sys.exit("svcbench: the optrec sources (src/) are not next to svcbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--test"]:
        return subprocess.run([build("svcbench_test")]).returncode
    binary = build("svcbench")
    scratch = os.path.join(ROOT, ".bench_build")
    cmd = [binary] + argv + [
        "--data-root", os.path.join(scratch, "svcbench-data"),
        "--spans-dir", os.path.join(scratch, "svcbench-spans"),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
