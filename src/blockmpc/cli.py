"""Command-line entry points: simulate, bench-condense, compare."""

from __future__ import annotations

import argparse
import sys

from .harness import (
    SchemeConfig,
    bench_condensing,
    compare_schemes,
    load_config,
    run_closed_loop,
    summary_text,
    write_bench,
    write_outputs,
)
from .integrator import IntegrationDivergedError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockmpc")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one closed-loop scheme")
    sim.add_argument("--config", required=True, help="path to a key=value config file")
    sim.add_argument("--scheme", choices=["A", "B", "C"],
                     help="override the scheme from the config")
    sim.add_argument("--out", required=True, help="output directory")

    bench = sub.add_parser("bench-condense", help="condensing scaling benchmark")
    bench.add_argument("--nx", type=int, required=True)
    bench.add_argument("--nu", type=int, required=True)
    bench.add_argument("--M", type=int, required=True)
    bench.add_argument("--N", required=True, help="comma-separated interval counts")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)

    cmp_ = sub.add_parser("compare", help="run schemes A, B and C with one tuning")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--out", required=True)
    return parser


def _load(args) -> SchemeConfig:
    cfg = load_config(args.config)
    if getattr(args, "scheme", None):
        cfg = cfg.with_scheme(args.scheme)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _load(args)
            log = run_closed_loop(cfg)
            write_outputs(log, args.out)
            for line in summary_text(log):
                print(line)
            if log.aborted:
                print(f"error: run aborted: {log.aborted}", file=sys.stderr)
                return 1
            return 0

        if args.command == "bench-condense":
            n_list = [int(tok) for tok in args.N.replace(",", " ").split()]
            rows = bench_condensing(args.nx, args.nu, args.M, n_list, args.reps,
                                    seed=args.seed)
            write_bench(rows, args.out)
            for row in rows:
                print(f"N={row['N']} tailored={row['tailored_ms']:.3f}ms "
                      f"naive={row['naive_ms']:.3f}ms "
                      f"tailored_mults={row['tailored_mults']} "
                      f"naive_mults={row['naive_mults']} "
                      f"hhat_mults={row['hhat_mults']}")
            return 0

        if args.command == "compare":
            cfg = _load(args)
            logs = compare_schemes(cfg, args.out)
            for scheme, log in logs.items():
                print(f"--- scheme {scheme} ---")
                for line in summary_text(log):
                    print(line)
                if log.aborted:
                    print(f"error: scheme {scheme} run aborted: {log.aborted}", file=sys.stderr)
            return 1 if any(log.aborted for log in logs.values()) else 0
    except (ValueError, OSError, IntegrationDivergedError) as err:  # ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, IntegrationDivergedError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
