#!/usr/bin/env python3
"""Check that a change leaves the outputs of ``blockmpc compare`` byte for byte as they were.

    python3 tools/same_outputs.py                   # HEAD against the working tree
    python3 tools/same_outputs.py --parent HEAD~1   # after committing the change

The parent revision is written out with ``bench_pairs.extract`` (``git
archive``); the change side is the working tree as it stands.  Each side runs
``python -m blockmpc.cli compare --config CONFIG`` from its own ``src``, a
relative CONFIG (default ``configs/pendulum.cfg``) read from its own tree.

Per scheme it prints whether ``traj.csv`` and ``kkt.csv`` are byte-identical
(or else the largest absolute difference of their entries) and the QP
iteration sums of ``timing.csv``; it also prints both exit codes.  Each side
then runs ``bench-condense`` (BENCH_ARGS) and it prints whether the multiply
counts of ``bench.csv`` (MULT_COLUMNS) are equal, so a change that should
leave the counted work alone can show that it does.  It exits 1 on any
difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import ROOT, extract, git

SCHEMES = ("A", "B", "C")
FILES = ("traj.csv", "kkt.csv")
BENCH_ARGS = ("--nx", "4", "--nu", "1", "--M", "10", "--N", "20,40,80,160", "--reps", "1")
MULT_COLUMNS = ("tailored_mults", "naive_mults", "hhat_mults")


def run_cli(tree: str, *args: str) -> int:
    """Exit code of ``python -m blockmpc.cli ARGS`` run from ``tree``'s sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(tree, "src"),
                                                    env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "blockmpc.cli", *args]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def mult_counts(out: str) -> list[tuple] | None:
    """(N, MULT_COLUMNS...) per row of ``bench.csv`` in ``out``, exactly as written."""
    try:
        with open(os.path.join(out, "bench.csv"), newline="") as fh:
            return [(row["N"],) + tuple(row[c] for c in MULT_COLUMNS) for row in csv.DictReader(fh)]
    except FileNotFoundError:
        return None


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def csv_values(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def file_verdict(parent: str, change: str) -> tuple[bool, str]:
    """(same, text) for one output file of both sides."""
    a, b = read(parent), read(change)
    if a == b:
        return True, "identical" if a is not None else "missing on both sides"
    if a is None or b is None:
        return False, f"missing on the {'parent' if a is None else 'change'} side"
    va, vb = csv_values(parent), csv_values(change)
    if va.shape != vb.shape:
        return False, f"shape {va.shape} -> {vb.shape}"
    return False, f"differs, max |diff| {np.abs(va - vb).max():.3g}"


def qp_iterations(run_dir: str) -> int | None:
    path = os.path.join(run_dir, "timing.csv")
    return int(csv_values(path)[:, -1].sum()) if os.path.exists(path) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--config", default=os.path.join("configs", "pendulum.cfg"))
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        extract(args.parent, trees["parent"])
        outs = {side: os.path.join(tmp, f"out_{side}") for side in trees}
        codes = {side: run_cli(trees[side], "compare", "--config",
                               os.path.join(trees[side], args.config), "--out", outs[side])
                 for side in trees}

        same = codes["parent"] == codes["change"]
        print(f"parent {args.parent} ({git('rev-parse', '--short', args.parent)}): "
              f"exit {codes['parent']}")
        print(f"change working tree: exit {codes['change']}")
        for scheme in SCHEMES:
            dirs = {side: os.path.join(outs[side], f"scheme_{scheme}") for side in trees}
            cells = []
            for name in FILES:
                ok, text = file_verdict(*(os.path.join(dirs[s], name) for s in trees))
                same &= ok
                cells.append(f"{name} {text}")
            iters = [qp_iterations(dirs[side]) for side in trees]
            same &= iters[0] == iters[1]
            print(f"scheme {scheme}: {', '.join(cells)}, qp iterations {iters[0]} -> {iters[1]}")

        bench = {side: os.path.join(tmp, f"bench_{side}") for side in trees}
        bench_codes = [run_cli(trees[side], "bench-condense", *BENCH_ARGS, "--out", bench[side])
                       for side in trees]
        counts = [mult_counts(bench[side]) for side in trees]
        mults_same = counts[0] is not None and counts[0] == counts[1]
        same &= mults_same and bench_codes[0] == bench_codes[1]
        verdict = ("identical (N, " + ", ".join(MULT_COLUMNS) + "): "
                   + "; ".join(" ".join(row) for row in counts[0])
                   if mults_same else f"DIFFER: {counts[0]} -> {counts[1]}")
        print(f"bench-condense {' '.join(BENCH_ARGS)}: exit {bench_codes[0]} -> "
              f"{bench_codes[1]}, multiply counts {verdict}")
    print("same outputs" if same else "OUTPUTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
