#!/usr/bin/env python3
"""Wall-clock benchmark of a 4-replica probft_node SMR cluster on loopback.

Run from the repository root:

    python3 perfbench/run.py --workload durable-writes --seed 1 \
        --seconds 10 --trace 0

Workloads: durable-writes, write-ladder, read-mostly, leader-crash (see
perfbench/src/main.cpp). The script builds probft_node and the benchmark
driver from this checkout's sources into .bench_build/ (CMake, Release),
then runs the workload. Every metric is printed by name with its unit; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (and writes the traced run's spans as CSV under
.bench_build/runs/<workload>/traced/). The exit code is non-zero when a
correctness check fails or the run cannot be carried out.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("durable-writes", "write-ladder", "read-mostly", "leader-crash")


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the repository root "
                 "(no CMakeLists.txt and src/ here to build from)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "probft_node", "-j", jobs]]
        with open(log_path, "w") as log:
            for cmd in steps:
                if subprocess.run(cmd, stdout=log,
                                  stderr=subprocess.STDOUT).returncode != 0:
                    log.flush()
                    with open(log_path) as failed:
                        sys.stderr.write(failed.read()[-4000:])
                    sys.exit("perfbench: build failed (see %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD_DIR, "e2e_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--node", os.path.join(BUILD_DIR, "examples", "probft_node"),
           "--workdir", os.path.join(BUILD_DIR, "runs")]
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
