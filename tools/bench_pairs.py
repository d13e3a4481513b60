#!/usr/bin/env python3
"""Alternating parent/change pairs of the closed-loop benchmark, kept in BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 23 \\
        --workloads swingup_C swingup_A --seed 3 --seconds 45 --pairs 10

Each revision is extracted with ``git archive`` into its own temporary
directory, and the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
runs from that tree, so both sides run committed files only.  In pair p
the parent runs first when p is even and the change when p is odd; within
a pair each workload runs on both sides back to back, in the order given.

Runs are appended to ``BENCH_<pr>.json`` (pairs number on from the runs
already there), in the schema ``benchmark``, ``parent``, ``change``,
``environment``, ``order``, ``runs``.  The summary covers every run in the
file, per workload, seed and trace: each metric's median and quartiles on
both sides, the pairs the change wins, and whether the median gap exceeds
the parent's interquartile range in the change's favour.  ``--pairs 0``
only prints the summary.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the committed tree of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def load_benchmark(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark run in ``tree``: (result dict, note lines)."""
    cmd = load_benchmark(tree)["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        notes = lines[:-1]
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        notes = lines
    if proc.returncode:
        result["correct"] = False
        notes.append(f"exit code {proc.returncode}")
    return result, notes + proc.stderr.strip().splitlines()


def environment(notes: list) -> str:
    """The run's 'env:' note without its tree-dependent src line count."""
    for line in notes:
        if line.startswith("env: "):
            return " ".join(w for w in line[5:].split() if not w.startswith("src_lines="))
    return "unknown"


def run_pairs(args, data: dict) -> None:
    first = 1 + max((r["pair"] for r in data["runs"]), default=-1)
    sides = {"parent": args.parent, "change": args.change}
    data["order"] += (f" Pairs {first}-{first + args.pairs - 1}: seed {args.seed}, trace "
                      f"{args.trace}, workloads {', '.join(args.workloads)}, change src/ tree "
                      f"{git('rev-parse', '--short', args.change + ':src')}.")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in sides.items():
            trees[side] = os.path.join(tmp, side)
            extract(rev, trees[side])
        for pair in range(first, first + args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    result, notes = run_once(trees[side], workload, args.seed, args.seconds,
                                             args.trace)
                    data["runs"].append({"side": side, "workload": workload, "seed": args.seed,
                                         "trace": args.trace, "pair": pair, "result": result,
                                         "notes": notes})
                    if data["environment"] == "unknown":
                        data["environment"] = environment(notes)
                    with open(args.out, "w") as fh:  # an interrupted batch keeps its runs
                        json.dump(data, fh, indent=1)
                        fh.write("\n")
                    print(f"pair {pair} {side} {workload}: "
                          f"{'ok' if result.get('correct') else 'FAILED'}", flush=True)


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(data: dict, better: dict) -> list:
    """Per group and metric: medians, quartiles, wins and the gap-against-IQR verdict."""
    groups: dict = {}
    for r in data["runs"]:
        key = (r["workload"], r["seed"], r["trace"])
        groups.setdefault(key, {}).setdefault(r["pair"], {})[r["side"]] = r["result"]
    out = []
    for (workload, seed, trace), pairs in groups.items():
        ok = [p for p in pairs.values() if all(p.get(s, {}).get("correct") for s in
                                               ("parent", "change"))]
        failed = sum(1 for p in pairs.values() for r in p.values() if not r.get("correct"))
        out.append(f"{workload} seed={seed} trace={trace}: {len(ok)} complete pairs, "
                   f"{failed} failed runs")
        if not ok:
            continue
        out.append(f"  {'metric':36s} {'parent median [q1, q3]':34s} "
                   f"{'change median [q1, q3]':34s} {'change':>8s} {'wins':>7s} {'ties':>4s}"
                   f"  gap>IQR")
        for name in ok[0]["parent"]["metrics"]:
            par = [p["parent"]["metrics"][name]["value"] for p in ok]
            chg = [p["change"]["metrics"][name]["value"] for p in ok]
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            ties = sum(c == p for p, c in zip(par, chg))
            pq1, pm, pq3 = quartiles(par)
            cq1, cm, cq3 = quartiles(chg)
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            resolved = "yes" if sign * (pm - cm) > pq3 - pq1 else "no"
            cell_p, cell_c = (f"{m:.5g} [{q1:.5g}, {q3:.5g}]"
                              for m, q1, q3 in ((pm, pq1, pq3), (cm, cq1, cq3)))
            out.append(f"  {name:36s} {cell_p:34s} {cell_c:34s} {rel:>8s} "
                       f"{f'{wins}/{len(ok)}':>7s} {ties:>4d}  {resolved}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    ap.add_argument("--change", default="HEAD", help="change revision (default HEAD)")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--describe", help="what the change does (default: its commit subject)")
    ap.add_argument("--workloads", nargs="+", default=["swingup_C", "swingup_A"])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pairs", type=int, default=10, help="pairs to run; 0 only summarizes")
    args = ap.parse_args(argv)
    args.out = os.path.join(ROOT, f"BENCH_{args.pr}.json")

    parent = git("rev-parse", "--short", args.parent)
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
        if args.pairs and data["parent"] != parent:
            print(f"error: {args.out} holds runs against parent {data['parent']}, not {parent}",
                  file=sys.stderr)
            return 2
    else:
        data = {"benchmark": "python3 perfbench/run.py --workload W --seed S --seconds T "
                             "--trace X",
                "parent": parent,
                "change": args.describe or git("log", "-1", "--format=%s", args.change),
                "environment": "unknown",
                "order": "Runs are listed in the order they ran; within pair p the parent ran "
                         "first when p is even and the change ran first when p is odd, each "
                         "workload on both sides back to back. 'notes' keeps the run's "
                         "stdout/stderr note lines.",
                "runs": []}
    if args.pairs:
        run_pairs(args, data)
    spec = load_benchmark(ROOT)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    print("\n".join(summarize(data, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
