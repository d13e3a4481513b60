#!/usr/bin/env python3
"""Closed-loop control-latency benchmark of blockmpc.

    python3 perfbench/run.py --workload swingup_C --seed 1 --seconds 45 --trace 0

One single-threaded process drives ``harness.run_closed_loop`` on a
configuration generated from the seed and times every
``RtiController.step`` call as the loop sees it.  The episode (240
samples, 6 s of closed loop) is repeated while the next repetition fits in
the time budget, and at least twice; every repetition must reproduce the
first bit for bit, and a sample's time is the median over them.

The cores of the machine this was sized on switch between a fast state and
one about 1.5-2 times slower, for seconds to minutes at a time, because of
other tenants.  Each step is therefore bracketed by a fixed pure-Python
probe, and every time is rescaled by (fastest probe of the run) / (probe
around it): the figures are milliseconds at the fastest machine state seen
in the run.  The unscaled median is printed next to them.  See README.md.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
second sample through the layer wrappers in ``tracing.py`` and prints the
per-layer metrics.  The last stdout line is the JSON result.
"""

import os

# Pin BLAS to one thread before numpy is imported: the installed OpenBLAS
# would otherwise size its pool from the core count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from blockmpc import harness  # noqa: E402
from blockmpc.condensing import FlopCounter, condense  # noqa: E402
from blockmpc.rti import RtiController  # noqa: E402
from tracing import Tracer  # noqa: E402

EPISODE_S = 6.0         # swingup_success looks at t >= 5 s
MIN_EPISODES = 2        # repetitions are compared sample by sample
SETUP_REPS = 5          # set-ups timed before each episode and after the last
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
PROBE_ITERS = 4000      # about 0.25 ms in the fast state
HHAT_SWEEP = (20, 40, 80, 160)

# name -> scheme; every other config key keeps its default (configs/pendulum.cfg)
WORKLOADS = {"swingup_C": "C", "swingup_A": "A"}

# One timed call: wrapper entry and exit, the timed region, the probes
# around it, and the trace record of a traced call.
Call = namedtuple("Call", "enter t0 t1 exit probe_before probe_after trace")


def initial_state(seed: int):
    """Seeded start near hanging: p in +-0.2 m, theta in pi +- 0.3 rad, at rest."""
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(-0.2, 0.2))
    theta = float(np.pi + rng.uniform(-0.3, 0.3))
    return p, theta


def config_text(workload: str, seed: int) -> str:
    """The generated config file: the defaults plus scheme, start and run length."""
    p, theta = initial_state(seed)
    return (f"scheme = {WORKLOADS[workload]}\n"
            f"x0 = {p!r}, {theta!r}, 0, 0\n"
            f"sim_time = {EPISODE_S!r}\n")


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop, the machine-speed reference.

    Interpreted Python slows down with the shared core about as much as a
    controller step does (the step is dominated by interpreter and numpy
    call overhead on 4x4 blocks); numpy-only probes overstate it.
    """
    t0 = perf_counter()
    s = 0.0
    for i in range(PROBE_ITERS):
        s += i * 0.5
    return perf_counter() - t0


def tail_value(values, beyond: int = TAIL_BEYOND):
    """Value with exactly ``beyond`` values above it, and its percentile."""
    s = sorted(values)
    return s[len(s) - beyond - 1], 100.0 * (len(s) - beyond) / len(s)


class StepRecorder:
    """Times each RtiController.step call; with a tracer, traces every odd sample."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.episodes = []  # per episode: [Call]

    def new_episode(self):
        self.calls = []
        self.episodes.append(self.calls)

    def wrap(self, step):
        rec = self

        def timed_step(controller, state, x0_measured):
            enter = perf_counter()
            tracer = rec.tracer if len(rec.calls) % 2 else None
            before = probe()
            if tracer:
                tracer.install()
                tracer.begin("rti.step")
            t0 = perf_counter()
            try:
                return step(controller, state, x0_measured)
            finally:
                t1 = perf_counter()
                if tracer:
                    tracer.end()
                    tracer.uninstall()
                after = probe()
                rec.calls.append(Call(enter, t0, t1, perf_counter(), before, after,
                                      tracer.take() if tracer else None))
        return timed_step


def time_setup(cfg_path: str, tracer=None) -> list:
    """load_config -> build_controller -> initial_state, SETUP_REPS times."""
    out = []
    for _ in range(SETUP_REPS):
        before = probe()
        if tracer:
            tracer.install()
        t0 = perf_counter()
        cfg = harness.load_config(cfg_path)
        controller = harness.build_controller(cfg)
        controller.initial_state(np.array(cfg.x0))
        t1 = perf_counter()
        if tracer:
            tracer.uninstall()
        out.append(Call(t0, t0, t1, t1, before, probe(), tracer.take() if tracer else None))
    return out


def run_episodes(cfg_path: str, seconds: float, recorder: StepRecorder):
    """Repeat the closed-loop episode while the next one fits in ``seconds``."""
    cfg = harness.load_config(cfg_path)
    logs, ends, setups = [], [], []
    original = RtiController.step
    RtiController.step = recorder.wrap(original)
    try:
        start = perf_counter()
        while True:
            setups += time_setup(cfg_path, recorder.tracer)
            recorder.new_episode()
            t0 = perf_counter()
            logs.append(harness.run_closed_loop(cfg))
            ends.append(perf_counter())
            if len(logs) >= MIN_EPISODES and ends[-1] - start + ends[-1] - t0 > seconds:
                break
        setups += time_setup(cfg_path, recorder.tracer)
    finally:
        RtiController.step = original
    return cfg, logs, ends, setups


# --- output checks --------------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def closed_loop_cost(cfg, log) -> float:
    """Sum over samples of x'Qx + u'Ru for the plant state and the applied input."""
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    return float(sum(x @ Q @ x + u @ R @ u for x, u in zip(log.x, log.u)))


def check_outputs(workload, seed, cfg, logs, recorder) -> list:
    """Every reason to publish no number; empty when the outputs are right."""
    n = int(np.floor(cfg.sim_time / cfg.Ts + 1e-9))
    errors = []
    first = logs[0]
    for e, log in enumerate(logs):
        tag = f"episode {e}"
        if log.aborted:
            errors.append(f"{tag}: aborted: {log.aborted}")
        if len(log) != n:
            errors.append(f"{tag}: {len(log)} samples, expected {n}")
        if any(log.flags):
            errors.append(f"{tag}: {sum(log.flags)} flagged samples")
        if not (np.all(np.isfinite(log.x)) and np.all(np.isfinite(log.u))):
            errors.append(f"{tag}: non-finite state or input")
        elif log.x and np.max(np.abs(np.asarray(log.x)[:, 0])) > cfg.x_hi[0] + 1e-6:
            errors.append(f"{tag}: |p| exceeds {cfg.x_hi[0]} m")
        if not harness.swingup_success(log):
            errors.append(f"{tag}: no swing-up")
        if e and not (np.array_equal(log.x, first.x) and np.array_equal(log.u, first.u)
                      and log.qp_iters == first.qp_iters
                      and log.qp_status == first.qp_status):
            errors.append(f"{tag}: outputs differ from episode 0 for the same seed")
    if recorder.tracer:
        for i in range(1, min(len(c) for c in recorder.episodes), 2):
            counts = {json.dumps(c[i].trace["counts"], sort_keys=True)
                      for c in recorder.episodes}
            if len(counts) > 1:
                errors.append(f"sample {i}: call counts differ across repetitions")
                break

    ref = load_reference()
    table = ref["closed_loop_cost"][workload]
    cost = closed_loop_cost(cfg, first)
    if str(seed) in table:
        want, tol = table[str(seed)], ref["seed_tolerance"]
    else:
        want, tol = statistics.median(table.values()), ref["band_tolerance"]
    if not abs(cost - want) <= tol * abs(want):
        errors.append(f"closed_loop_cost {cost:.6f} is not within {tol:g} of {want:.6f}")
    return errors


# --- metrics --------------------------------------------------------------------

class Timings:
    """Per-sample step and loop times: the median over the repetitions, rescaled."""

    def __init__(self, recorder, ends, setups):
        self.episodes = recorder.episodes
        calls = [c for ep in self.episodes for c in ep] + setups
        self.p_ref = min(min(c.probe_before, c.probe_after) for c in calls)
        self.n = min(len(ep) for ep in self.episodes)
        self.setup = [self.scaled(c, c.t1 - c.t0) for c in setups]
        self.step, self.gap, self.raw = [], [], []
        for i in range(self.n):
            step, gap, raw = [], [], []
            for ep, end in zip(self.episodes, ends):
                c = ep[i]
                nxt = ep[i + 1].enter if i + 1 < len(ep) else end
                step.append(self.scaled(c, c.t1 - c.t0))
                gap.append(self.scaled(c, nxt - c.exit))
                raw.append(c.t1 - c.t0)
            self.step.append(statistics.median(step))
            self.gap.append(statistics.median(gap))
            self.raw.append(statistics.median(raw))

    def factor(self, call) -> float:
        return (call.probe_before + call.probe_after) / (2.0 * self.p_ref)

    def scaled(self, call, seconds: float) -> float:
        return seconds / self.factor(call)

    def notes(self) -> list:
        factors = [self.factor(c) for ep in self.episodes for c in ep]
        return [f"unscaled step_ms_p50 {statistics.median(self.raw) * 1e3:.4g} ms; machine "
                f"slowdown median {statistics.median(factors):.3f}, fastest probe "
                f"{self.p_ref * 1e6:.1f} us"]


def end_to_end(cfg, logs, tm: Timings):
    tail, pct = tail_value(tm.step)
    metrics = {
        "step_ms_p50": (statistics.median(tm.step) * 1e3, "ms"),
        "step_ms_tail": (tail * 1e3, "ms"),
        "steps_per_s": (tm.n / (sum(tm.step) + sum(tm.gap)), "1/s"),
        "setup_s": (statistics.median(tm.setup), "s"),
        "closed_loop_cost": (closed_loop_cost(cfg, logs[0]), "cost"),
    }
    notes = tm.notes() + [
        f"step_ms_tail is p{pct:.2f} of {tm.n} samples, each the median of "
        f"{len(tm.episodes)} executions",
        f"deadline_miss_frac = {sum(s > cfg.Ts for s in tm.step) / tm.n:.4f} "
        f"(steps slower than Ts = {cfg.Ts * 1e3:g} ms; reported, not gated)",
    ]
    return metrics, notes


LAYER_SPANS = ("shooting.evaluate", "condensing.condense", "condensing.compute_Ghat",
               "condensing.compute_Hhat", "condensing.compute_ghat", "condensing.compute_L",
               "condensing.condense_constraints", "condensing.expand",
               "qp_solver.solve_qp", "rti.kkt_residual")
LAYER_COUNTS = ("integrator.integrate_interval.calls", "model.rhs.calls", "model.jac.calls")


def per_layer(cfg, logs, tm: Timings, setups):
    traced = [(i, c) for ep in tm.episodes for i, c in enumerate(ep[:tm.n]) if c.trace]
    n = len(traced)

    def mean_ms(kind, name):
        return sum(tm.scaled(c, c.trace[kind].get(name, 0.0)) for _, c in traced) / n * 1e3

    m = {f"{name}.ms": (mean_ms("incl", name), "ms") for name in LAYER_SPANS}
    m["condensing.condense.self_ms"] = (mean_ms("self", "condensing.condense"), "ms")
    m["rti.step.self_ms"] = (mean_ms("self", "rti.step"), "ms")
    step_ms = mean_ms("incl", "rti.step")
    self_sum = sum(tm.scaled(c, sum(c.trace["self"].values())) for _, c in traced) / n * 1e3
    if abs(self_sum - step_ms) > 1e-9 * max(step_ms, 1.0):
        raise RuntimeError(f"span self times {self_sum} ms do not add up to {step_ms} ms")
    m["trace.step_ms"] = (step_ms, "ms")
    m["trace.self_sum_ms"] = (self_sum, "ms")
    for name in LAYER_COUNTS:
        m[name] = (sum(c.trace["counts"].get(name, 0) for _, c in traced) / n, "count")

    qp = [tm.scaled(c, c.trace["incl"].get("qp_solver.solve_qp", 0.0)) for _, c in traced]
    iters = logs[0].qp_iters
    m["qp_solver.solve_qp.ms_p50"] = (statistics.median(qp) * 1e3, "ms")
    m["qp_solver.solve_qp.ms_tail"] = (tail_value(qp)[0] * 1e3, "ms")
    m["qp_solver.iterations.sum"] = (sum(iters), "count")
    m["qp_solver.iterations.max"] = (max(iters), "count")
    m["qp_solver.ms_per_iter"] = (sum(qp) * 1e3 / max(sum(iters[i] for i, _ in traced), 1),
                                  "ms")
    m["qp_solver.not_solved"] = (sum(s != "solved" for log in logs for s in log.qp_status),
                                 "count")

    for name in ("harness.build_controller", "rti.initial_state"):
        m[f"{name}.ms"] = (statistics.median(tm.scaled(c, c.trace["incl"].get(name, 0.0))
                                             for c in setups) * 1e3, "ms")
    untraced = range(0, tm.n, 2)
    m["harness.loop.self_ms"] = (statistics.fmean(tm.gap[i] for i in untraced) * 1e3, "ms")

    mults = []
    for _ in range(2):
        controller = harness.build_controller(cfg)
        x0 = np.array(cfg.x0)
        prep = controller.prepare(controller.initial_state(x0), x0)
        counter = FlopCounter()
        condense(prep.sd, controller.bs, counter)
        mults.append(counter.mults)
    sweeps = [harness.bench_condensing(4, 1, 10, HHAT_SWEEP, reps=1) for _ in range(2)]
    hhat = [[row["hhat_mults"] for row in rows] for rows in sweeps]
    if mults[0] != mults[1] or hhat[0] != hhat[1]:
        raise RuntimeError(f"multiply counts differ across repetitions: {mults} {hhat}")
    m["condensing.mults"] = (mults[0], "count")
    for N, count in zip(HHAT_SWEEP, hhat[0]):
        m[f"condensing.hhat_mults.N{N}"] = (count, "count")

    # An untraced sample and the traced one after it run in nearly the same
    # machine state and do nearly the same work, so their difference is the
    # tracing cost.
    diffs = [tm.scaled(ep[i + 1], ep[i + 1].t1 - ep[i + 1].t0) - tm.scaled(ep[i], ep[i].t1 - ep[i].t0)
             for ep in tm.episodes for i in range(0, tm.n - 1, 2)]
    untraced_loop = statistics.fmean(tm.step[i] + tm.gap[i] for i in untraced)
    m["trace.overhead_pct"] = (100.0 * statistics.median(diffs) / untraced_loop, "%")
    notes = tm.notes() + [
        f"per-layer times are means over {n} traced executions; trace.overhead_pct is "
        f"against the untraced time per sample ({1.0 / untraced_loop:.4g} samples/s)"]
    return m, notes


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} {threads} src_lines={src_lines}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, f"{args.workload}-{args.seed}.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(config_text(args.workload, args.seed))

    recorder = StepRecorder(Tracer() if args.trace else None)
    cfg, logs, ends, setups = run_episodes(cfg_path, args.seconds, recorder)

    attempted = sum(len(ep) for ep in recorder.episodes)
    failed = sum(sum(log.flags) + (len(ep) - len(log) if log.aborted else 0)
                 for log, ep in zip(logs, recorder.episodes))
    errors = check_outputs(args.workload, args.seed, cfg, logs, recorder)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"episodes={len(logs)} samples_per_episode={len(logs[0])} x0={cfg.x0}")
    print(f"env: {environment()}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed}/{attempted} samples)")
    if errors:
        for err in errors:
            print(f"CHECK FAILED: {err}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    tm = Timings(recorder, ends, setups)
    if args.trace:
        metrics, notes = per_layer(cfg, logs, tm, setups)
    else:
        metrics, notes = end_to_end(cfg, logs, tm)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
