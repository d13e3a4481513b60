#!/usr/bin/env python3
"""Run every workload once, each in its own process, with the same arguments.

    python3 perfbench/all.py --seed 1 --seconds 30 --trace 0

Prints each run's output under a header line and exits non-zero if any run
fails its checks.
"""

import os
import subprocess
import sys

from run import HERE, WORKLOADS


def main(argv) -> int:
    status = 0
    for workload in WORKLOADS:
        print(f"=== {workload}", flush=True)
        status |= subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                  "--workload", workload, *argv]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
