#!/usr/bin/env python3
"""Check that a change leaves the outputs of ``blockmpc compare`` byte for byte as they were.

    python3 tools/same_outputs.py                   # HEAD against the working tree
    python3 tools/same_outputs.py --parent HEAD~1   # after committing the change

The parent revision is written out with ``bench_pairs.extract`` (``git
archive``); the change side is the working tree as it stands.  Each side runs
``python -m blockmpc.cli compare --config CONFIG`` from its own ``src``, a
relative CONFIG (default ``configs/pendulum.cfg``) read from its own tree.

Per scheme it prints whether ``traj.csv`` and ``kkt.csv`` are byte-identical
(or else the largest absolute difference of their entries), the QP
iteration sums of ``timing.csv``, and whether the non-timing columns of the
scheme's ``summary.csv`` row (SUMMARY_COLUMNS) and ``meta.txt`` outside its
phase-timing lines (TIMING_LINES: config echo, QP iterations, KKT median,
sample and flag counts) are equal; it also prints both exit codes.  Each side
then runs ``bench-condense`` (BENCH_ARGS) and it prints whether the multiply
counts of ``bench.csv`` (MULT_COLUMNS) are equal, so a change that should
leave the counted work alone can show that it does.  Last, each side runs
``simulate`` on the FAILURES configs, written into a temporary directory, and
it prints each config's exit code and last stderr line on both sides: a bad
config (exit 2), an initial trajectory that overflows (exit 3), a state box
the loop cannot keep (exit 1) and a horizon whose condensed Hessian fails to
factor (exit 1).  Last of all it prints each side's ``src/`` line count, all
lines of ``src/**/*.py`` as ``perfbench/run.py`` counts them.  It exits 1 on
any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import glob
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
SUMMARY_COLUMNS = ("median_kkt_total", "swingup", "flagged_samples")
TIMING_LINES = ("shooting:", "condensing:", "qp:", "total:")  # meta.txt's wall-clock lines
FAILURES = {  # name -> config lines over the defaults
    "bad-N": ["N = -1"],
    "overflow": ["x0 = 0, 3.14, 0, 1e160"],
    "state-box": ["x0 = 0.2, 3.14159265358979312, 0, 0",
                  "x_lo = -0.05, -inf, -inf, -inf", "x_hi = 0.05, inf, inf, inf"],
    "long-horizon": ["N = 240", "block_lengths = 1,2,3,4,5,5,15,15,15,15" + ",8" * 20,
                     "sim_time = 2"],
}


def run_cli(tree: str, *args: str) -> tuple[int, str]:
    """(exit code, last stderr line) of ``python -m blockmpc.cli ARGS`` run from ``tree``'s
    sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(tree, "src"),
                                                    env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "blockmpc.cli", *args]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1]


def mult_counts(out: str) -> list[tuple] | None:
    """(N, MULT_COLUMNS...) per row of ``bench.csv`` in ``out``, exactly as written."""
    try:
        with open(os.path.join(out, "bench.csv"), newline="") as fh:
            return [(row["N"],) + tuple(row[c] for c in MULT_COLUMNS) for row in csv.DictReader(fh)]
    except FileNotFoundError:
        return None


def summary_rows(out: str) -> dict | None:
    """{scheme: (SUMMARY_COLUMNS...)} of ``summary.csv`` in ``out``, exactly as written."""
    try:
        with open(os.path.join(out, "summary.csv"), newline="") as fh:
            return {row["scheme"]: tuple(row[c] for c in SUMMARY_COLUMNS)
                    for row in csv.DictReader(fh)}
    except FileNotFoundError:
        return None


def meta_lines(run_dir: str) -> list[str] | None:
    """The lines of ``meta.txt`` in ``run_dir`` other than TIMING_LINES."""
    text = read(os.path.join(run_dir, "meta.txt"))
    return None if text is None else [line for line in text.decode().splitlines()
                                      if not line.startswith(TIMING_LINES)]


def src_lines(tree: str) -> int:
    """All lines of ``tree``'s ``src/**/*.py``, as ``perfbench/run.py`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


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
                               os.path.join(trees[side], args.config), "--out", outs[side])[0]
                 for side in trees}

        same = codes["parent"] == codes["change"]
        summaries = [summary_rows(outs[side]) or {} for side in trees]
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
            rows = [summary.get(scheme) for summary in summaries]
            metas = [meta_lines(dirs[side]) for side in trees]
            ok_rows, ok_meta = rows[0] is not None and rows[0] == rows[1], metas[0] == metas[1]
            same &= iters[0] == iters[1] and ok_rows and ok_meta and metas[0] is not None
            shown = (f"equal {dict(zip(SUMMARY_COLUMNS, rows[0]))}" if ok_rows
                     else f"DIFFER: {rows[0]} -> {rows[1]}")
            print(f"scheme {scheme}: {', '.join(cells)}, qp iterations {iters[0]} -> {iters[1]}, "
                  f"summary.csv {shown}, meta.txt outside timings "
                  f"{'identical' if ok_meta and metas[0] is not None else 'DIFFERS'}")

        bench = {side: os.path.join(tmp, f"bench_{side}") for side in trees}
        bench_codes = [run_cli(trees[side], "bench-condense", *BENCH_ARGS, "--out", bench[side])[0]
                       for side in trees]
        counts = [mult_counts(bench[side]) for side in trees]
        mults_same = counts[0] is not None and counts[0] == counts[1]
        same &= mults_same and bench_codes[0] == bench_codes[1]
        verdict = ("identical (N, " + ", ".join(MULT_COLUMNS) + "): "
                   + "; ".join(" ".join(row) for row in counts[0])
                   if mults_same else f"DIFFER: {counts[0]} -> {counts[1]}")
        print(f"bench-condense {' '.join(BENCH_ARGS)}: exit {bench_codes[0]} -> "
              f"{bench_codes[1]}, multiply counts {verdict}")

        for name, lines in FAILURES.items():
            cfg = os.path.join(tmp, f"{name}.cfg")
            with open(cfg, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            ends = [run_cli(trees[side], "simulate", "--config", cfg, "--out",
                            os.path.join(tmp, f"{name}_{side}")) for side in trees]
            same &= ends[0] == ends[1]
            shown = (f"exit {ends[0][0]}, {ends[0][1]!r}" if ends[0] == ends[1]
                     else f"DIFFER: exit {ends[0][0]}, {ends[0][1]!r} -> exit {ends[1][0]}, "
                          f"{ends[1][1]!r}")
            print(f"simulate {name} ({'; '.join(lines)}): {shown}")
        print(f"src lines: {src_lines(trees['parent'])} -> {src_lines(trees['change'])}")
    print("same outputs" if same else "OUTPUTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
