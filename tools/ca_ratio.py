#!/usr/bin/env python3
"""The C/A step-time ratio, read with schemes A and C stepped alternately.

    python3 tools/ca_ratio.py                  # the working tree
    python3 tools/ca_ratio.py --parent HEAD~1  # a committed revision

Acceptance criterion 2 reads the C/A ratios of the median ``condensing``
and ``total`` phase times from closed loops run one after the other, so a
change of machine speed between the runs moves them.  Here each closed loop
drives an A and a C controller side by side, both with the default
configuration from the default start: sample by sample, one controller
steps and then the other (the order alternates), each against its own
plant, stepped as ``run_closed_loop`` steps it (``harness._plant_step``,
which raises on a diverged plant state), so both schemes see the same
machine state.  Per loop and over all
loops it prints each scheme's median ``total``, ``condensing`` and
``shooting`` times (ms, from ``RtiState.timings``) and the C/A ratios of
the ``total`` and ``condensing`` medians; shooting is work both schemes
share, so a cut in it shows next to the ratio it moves.

Last, outside the timed loops, it counts the calls of one step per scheme,
sample 30 of a closed loop from the default start, with a ``sys.setprofile``
hook: the C-level calls, of them the ``ndarray.dot`` calls, and the Python
calls.  The counts are exact and repeat run to run, where times do not.
Operator ufuncs (``a + b``) raise no ``c_call`` event and are not counted.

``--parent REV`` measures the committed tree of REV instead, written out
with ``bench_pairs.extract`` (``git archive``) and run from its own ``src``.
BLAS is pinned to one thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from bench_pairs import ROOT, extract  # noqa: E402

SCHEMES = ("A", "C")
PHASES = ("total", "condensing", "shooting")
COUNTED_SAMPLE = 30


def default_loop():
    """({scheme: config} of SCHEMES, the plant kernel they share)."""
    from blockmpc.harness import SchemeConfig
    from blockmpc.model import PendulumParams, pendulum_state_step

    cfgs = {s: SchemeConfig(scheme=s).validate() for s in SCHEMES}
    cfg = cfgs["C"]  # the schemes share every other key
    return cfgs, pendulum_state_step(PendulumParams(m1=cfg.m1, m2=cfg.m2, l=cfg.l, g=cfg.g))


def closed_loops(loops: int) -> list[dict]:
    """Per loop, {scheme: {phase: [s] for each of PHASES}} of every sample."""
    import numpy as np

    from blockmpc.harness import _plant_step, build_controller

    cfgs, plant = default_loop()
    cfg = cfgs["C"]
    out = []
    for _ in range(loops):
        ctrls = {s: build_controller(cfgs[s]) for s in SCHEMES}
        xs = {s: np.array(cfg.x0, dtype=float) for s in SCHEMES}
        states = {s: ctrls[s].initial_state(xs[s]) for s in SCHEMES}
        times = {s: {p: [] for p in PHASES} for s in SCHEMES}
        for i in range(int(cfg.sim_time / cfg.Ts + 1e-9)):
            for s in SCHEMES if i % 2 == 0 else SCHEMES[::-1]:
                u, states[s] = ctrls[s].step(states[s], xs[s])
                for phase, seconds in times[s].items():
                    seconds.append(states[s].timings[phase])
                xs[s] = _plant_step(plant, xs[s], u, cfg.Ts, cfg.plant_substeps)
        out.append(times)
    return out


def step_calls() -> dict:
    """{scheme: (C-level calls, of them ndarray.dot, Python calls)} of sample COUNTED_SAMPLE."""
    import numpy as np

    from blockmpc.harness import _plant_step, build_controller

    cfgs, plant = default_loop()
    out = {}
    for s, cfg in cfgs.items():
        ctrl, x = build_controller(cfg), np.array(cfg.x0, dtype=float)
        state = ctrl.initial_state(x)
        for _ in range(COUNTED_SAMPLE):
            u, state = ctrl.step(state, x)
            x = _plant_step(plant, x, u, cfg.Ts, cfg.plant_substeps)
        n = [0, 0, 0]

        def hook(frame, event, arg):
            if event == "call":
                n[2] += 1
            elif event == "c_call" and arg is not sys.setprofile:
                n[0] += 1
                n[1] += arg.__name__ == "dot" and isinstance(getattr(arg, "__self__", None),
                                                             np.ndarray)

        sys.setprofile(hook)
        try:
            ctrl.step(state, x)
        finally:
            sys.setprofile(None)
        out[s] = tuple(n)
    return out


def report(label: str, times: dict) -> str:
    med = {s: {p: statistics.median(v) * 1e3 for p, v in times[s].items()} for s in SCHEMES}
    cells = [f"{s} " + " ".join(f"{p} {med[s][p]:.3f}" for p in PHASES) + " ms"
             for s in SCHEMES]
    return (f"{label}: {' | '.join(cells)} | C/A total "
            f"{med['C']['total'] / med['A']['total']:.3f}, condensing "
            f"{med['C']['condensing'] / med['A']['condensing']:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--loops", type=int, default=4, help="closed loops to run (default 4)")
    ap.add_argument("--parent", help="measure this committed revision instead of the "
                                     "working tree")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the blockmpc sources to measure (default: the working tree's)")
    args = ap.parse_args(argv)
    if args.loops < 1:
        ap.error("--loops must be at least 1")
    if args.parent:
        with tempfile.TemporaryDirectory() as tree:
            extract(args.parent, tree)
            print(f"revision {args.parent}", flush=True)
            return subprocess.run([sys.executable, os.path.abspath(__file__), "--loops",
                                   str(args.loops), "--src", os.path.join(tree, "src")]).returncode
    sys.path.insert(0, args.src)
    loops = closed_loops(args.loops)
    for k, times in enumerate(loops, start=1):
        print(report(f"loop {k}", times), flush=True)
    pooled = {s: {p: [t for times in loops for t in times[s][p]] for p in PHASES}
              for s in SCHEMES}
    print(report("all loops", pooled))
    calls = step_calls()
    print(f"calls in step {COUNTED_SAMPLE}: " + " | ".join(
        f"{s} C-level {c:,} (ndarray.dot {d:,}), Python {p:,}" for s, (c, d, p) in calls.items())
        + f" | C/A C-level {calls['C'][0] / calls['A'][0]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
