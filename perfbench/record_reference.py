#!/usr/bin/env python3
"""Record the closed_loop_cost references that run.py checks against.

    python3 perfbench/record_reference.py 0-20 7919

Runs one episode per workload and seed and rewrites reference.json.
Re-record only when a change is meant to alter the control behaviour, and
say so where the change is described.
"""

import json
import os
import sys

import run


def main(argv) -> int:
    seeds = []
    for arg in argv:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    path = os.path.join(run.HERE, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    work = os.path.join(run.HERE, ".work")
    os.makedirs(work, exist_ok=True)
    for workload in run.WORKLOADS:
        table = {}
        for seed in seeds:
            cfg_path = os.path.join(work, f"ref-{workload}-{seed}.cfg")
            with open(cfg_path, "w") as fh:
                fh.write(run.config_text(workload, seed))
            cfg = run.harness.load_config(cfg_path)
            table[str(seed)] = run.closed_loop_cost(cfg, run.harness.run_closed_loop(cfg))
            print(workload, seed, table[str(seed)], flush=True)
        ref["closed_loop_cost"][workload] = table
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
