"""Closed-loop simulation harness, scheme configuration, and benchmarks.

Three controller schemes share one plant and one tuning:

* scheme A: uniform grid, one input per interval (unit blocks);
* scheme B: nonuniform grid with M coarse intervals, stage weights scaled
  by interval length, terminal weight unscaled;
* scheme C: uniform grid with inputs move-blocked into M blocks.

Configs are flat ``key = value`` text files; outputs are CSV files with a
header row, comma separators, '.' decimals, and 12 significant digits.
"""

from __future__ import annotations

import math
import numbers
import os
import statistics
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .blocking import from_block_indices, from_block_lengths, unit_blocks
from .condensing import (FlopCounter, compute_Ghat, compute_Hhat, condense, naive_condense,
                         workspace)
from .integrator import IntegrationDivergedError
from .model import (
    PENDULUM_DIMS,
    PendulumParams,
    QuadraticCost,
    StageBounds,
    make_pendulum_problem,
)
from .rti import KktReport, RtiController
from .shooting import StageData

_PKG_NAME = "blockmpc"


# --- configuration ----------------------------------------------------------

@dataclass
class SchemeConfig:
    """Closed-loop run configuration; defaults reproduce the pendulum benchmark."""

    scheme: str = "C"
    Ts: float = 0.025
    N: int = 80
    block_lengths: tuple = (1, 2, 3, 4, 5, 5, 15, 15, 15, 15)
    grid_lengths: tuple = (1, 2, 3, 4, 5, 5, 15, 15, 15, 15)
    q_diag: tuple = (10.0, 10.0, 0.1, 0.1)
    r_diag: tuple = (0.01,)
    qn_diag: tuple = (10.0, 10.0, 0.1, 0.1)
    m1: float = 0.1
    m2: float = 1.0
    l: float = 0.8
    g: float = 9.81
    x_lo: tuple = (-2.0, -np.inf, -np.inf, -np.inf)
    x_hi: tuple = (2.0, np.inf, np.inf, np.inf)
    u_lo: tuple = (-20.0,)
    u_hi: tuple = (20.0,)
    x0: tuple = (0.0, np.pi, 0.0, 0.0)
    sim_time: float = 10.0
    plant_substeps: int = 10
    qp_tol: float = 1e-8
    qp_max_iter: int = 0  # 0 means the solver default
    seed: int = 0

    def validate(self, lines: dict | None = None):
        """Check the values; ``lines`` maps a field to its config-file line."""
        at = lambda key: f"line {lines[key]}: " if key in (lines or {}) else ""
        if self.scheme not in ("A", "B", "C"):
            raise ConfigError(f"scheme must be A, B or C, got {self.scheme!r}")
        for key in (f.name for f in fields(self) if f.name != "scheme"):
            value = getattr(self, key)  # NaN nowhere; an infinite value only as a bound
            values = value if isinstance(value, tuple) else (value,)
            if key in _BOUND_KEYS and any(map(math.isnan, values)):
                raise ConfigError(f"{at(key)}{key} must not be NaN, got {value}")
            if key not in _BOUND_KEYS and not all(map(math.isfinite, values)):
                raise ConfigError(f"{at(key)}{key} must be finite, got {value}")
            if _KINDS[key] is int and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{at(key)}{key} must be an integer, got {value}")
            if key in _PARTITION_FIELDS and not all(v % 1 == 0 and v >= 1 for v in values):
                raise ConfigError(f"{at(key)}{key} must be whole numbers of at least 1, "
                                  f"got {value}")
            if key in _POSITIVE_KEYS and not all(v > 0 for v in values):
                raise ConfigError(f"{at(key)}{key} must be positive, got {value}")
            if key in _NONNEGATIVE_KEYS and not all(v >= 0 for v in values):
                raise ConfigError(f"{at(key)}{key} must be nonnegative, got {value}")
        partition = {"B": "grid_lengths", "C": "block_lengths"}.get(self.scheme)
        if partition and sum(getattr(self, partition)) != self.N:
            raise ConfigError(f"{partition} sum to {sum(getattr(self, partition))}, "
                              f"expected N = {self.N}")
        for key, dim in _MODEL_DIM.items():
            n, got = getattr(PENDULUM_DIMS, dim), len(getattr(self, key))
            if got != n:
                raise ConfigError(f"{at(key)}{key} needs {dim} = {n} values, got {got}")
        for lo, hi in (("x_lo", "x_hi"), ("u_lo", "u_hi")):  # the line of lo, else of hi
            for i, (a, b) in enumerate(zip(getattr(self, lo), getattr(self, hi))):
                if a > b:
                    where = at(lo) or at(hi)
                    raise ConfigError(f"{where}{lo} must not exceed {hi}, "
                                      f"got {a} > {b} in component {i}")
        return self

    def with_scheme(self, scheme: str) -> "SchemeConfig":
        return replace(self, scheme=scheme).validate()


class ConfigError(ValueError):
    """Configuration file or value error; carries the offending line if known."""


_MODEL_DIM = {"q_diag": "nx", "qn_diag": "nx", "x_lo": "nx", "x_hi": "nx", "x0": "nx",
              "r_diag": "nu", "u_lo": "nu", "u_hi": "nu"}  # float vector -> dimension of its length
_BOUND_KEYS = {"x_lo", "x_hi", "u_lo", "u_hi"}  # the only keys that may be infinite
_POSITIVE_KEYS = {"Ts", "N", "plant_substeps", "m1", "m2", "l", "g", "r_diag", "qp_tol"}
_NONNEGATIVE_KEYS = {"sim_time", "q_diag", "qn_diag", "qp_max_iter"}  # qp_max_iter 0: the default
_KINDS = {f.name: type(f.default) for f in fields(SchemeConfig)}  # int, float, str or tuple
_PARTITION_KEYS = {"block_lengths": ("block_lengths", from_block_lengths),  # key -> field, parser
                   "block_indices": ("block_lengths", from_block_indices),
                   "grid_lengths": ("grid_lengths", from_block_lengths),
                   "grid_indices": ("grid_lengths", from_block_indices)}
_PARTITION_FIELDS = {target for target, _ in _PARTITION_KEYS.values()}


def _parse_vector(text: str, kind=float):
    return tuple(kind(tok) for tok in text.replace(",", " ").split())


def load_config(path: str) -> SchemeConfig:
    """Parse the flat key-value schema; unknown or repeated keys and bad values are rejected."""
    cfg = SchemeConfig()
    seen: dict[str, tuple] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _KINDS and key not in _PARTITION_KEYS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"line {line_no}: key {key!r} repeats line {seen[key][1]}")
            try:
                if key in _PARTITION_KEYS:
                    parsed = _PARTITION_KEYS[key][1](_parse_vector(value, int)).lengths
                elif _KINDS[key] is tuple:
                    parsed = _parse_vector(value)
                else:
                    parsed = _KINDS[key](value)
            except ValueError as err:
                raise ConfigError(f"line {line_no}: cannot parse value for {key!r}: {err}") from err
            seen[key] = (parsed, line_no)

    for alt, (target, _) in _PARTITION_KEYS.items():
        if alt != target and alt in seen:
            lengths = seen[alt][0]
            if target in seen and seen[target][0] != lengths:
                raise ConfigError(
                    f"line {seen[alt][1]}: {alt} disagrees with {target}")
            seen[target] = (lengths, seen[alt][1])
            del seen[alt]

    for key, (value, _) in seen.items():
        setattr(cfg, key, value)
    return cfg.validate({key: line_no for key, (_, line_no) in seen.items()})


def config_echo(cfg: SchemeConfig) -> list[str]:
    """Effective configuration as 'key = value' lines, with derived block indices."""

    def fmt(v):
        if isinstance(v, tuple):
            return ",".join(fmt(x) for x in v)
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)

    lines = [f"{f.name} = {fmt(getattr(cfg, f.name))}" for f in fields(cfg)]
    for name, lengths in (("block_indices", cfg.block_lengths),
                          ("grid_indices", cfg.grid_lengths)):
        lines.append(f"{name} = {fmt(from_block_lengths(lengths).I)}")
    lines.append(f"version = {_PKG_NAME} {__version__}")
    return lines


# --- controller construction ------------------------------------------------

def build_controller(cfg: SchemeConfig) -> RtiController:
    """Instantiate the problem and block structure for the configured scheme."""
    params = PendulumParams(m1=cfg.m1, m2=cfg.m2, l=cfg.l, g=cfg.g)
    cost = QuadraticCost(Q=np.diag(cfg.q_diag), R=np.diag(cfg.r_diag),
                         QN=np.diag(cfg.qn_diag),
                         x_ref=np.zeros(PENDULUM_DIMS.nx), u_ref=np.zeros(len(cfg.r_diag)))
    bounds = StageBounds(x_lo=np.array(cfg.x_lo), x_hi=np.array(cfg.x_hi),
                         u_lo=np.array(cfg.u_lo), u_hi=np.array(cfg.u_hi))
    qp_max_iter = cfg.qp_max_iter if cfg.qp_max_iter > 0 else None

    problem = make_pendulum_problem(params, cost, bounds, cfg.Ts, cfg.N,
                                    cfg.grid_lengths if cfg.scheme == "B" else None)
    bs = from_block_lengths(cfg.block_lengths) if cfg.scheme == "C" else unit_blocks(problem.N)
    return RtiController(problem, bs, qp_tol=cfg.qp_tol, qp_max_iter=qp_max_iter)


# --- closed-loop simulation --------------------------------------------------

@dataclass
class SimLog:
    """Per-sample record of one closed-loop run plus its config echo lines."""

    config: list
    t: list = field(default_factory=list)
    x: list = field(default_factory=list)
    u: list = field(default_factory=list)
    kkt: list = field(default_factory=list)
    timings: list = field(default_factory=list)
    qp_iters: list = field(default_factory=list)
    qp_status: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    aborted: str | None = None

    def __len__(self):
        return len(self.t)


def _plant_step(step, x, u, Ts, substeps):
    """Plant propagation over one sample: ``substeps`` steps of the float RK4 kernel ``step``."""
    h = Ts / substeps
    x = x.tolist()
    for _ in range(substeps):
        x = step(x, u, h)
    if not all(map(math.isfinite, x)):
        raise IntegrationDivergedError("plant state diverged")
    return np.array(x)


def run_closed_loop(cfg: SchemeConfig) -> SimLog:
    """Simulate the configured controller against the nominal plant.

    Per sample: measure plant state, prepare, feedback, apply the first
    input over Ts.  On integration divergence, or a ``LinAlgError`` inside
    the controller (a factorization that fails), the partial log is
    returned with ``aborted`` set.
    """
    cfg.validate()
    controller = build_controller(cfg)
    plant = controller.problem.state_step  # the nominal plant is the model's own kernel

    n_samples = int(np.floor(cfg.sim_time / cfg.Ts + 1e-9))
    log = SimLog(config=config_echo(cfg))

    x_plant = np.array(cfg.x0, dtype=float)
    state = controller.initial_state(x_plant)
    u_tol = 1e-6
    x_lo, x_hi = np.array(cfg.x_lo) - u_tol, np.array(cfg.x_hi) + u_tol
    u_lo, u_hi = np.array(cfg.u_lo) - u_tol, np.array(cfg.u_hi) + u_tol
    try:
        for i in range(n_samples):
            u, state = controller.step(state, x_plant)
            kkt: KktReport = state.last_kkt
            violated = bool(np.any(x_plant < x_lo) or np.any(x_plant > x_hi)
                            or np.any(u < u_lo) or np.any(u > u_hi))
            log.t.append(i * cfg.Ts)
            log.x.append(x_plant.copy())
            log.u.append(np.atleast_1d(u).copy())
            log.kkt.append(kkt)
            log.timings.append(dict(state.timings))
            sol = state.sol
            log.qp_iters.append(sol.iterations)
            log.qp_status.append(sol.status)
            log.flags.append(violated or sol.status != "solved")
            x_plant = _plant_step(plant, x_plant, u, cfg.Ts, cfg.plant_substeps)
    except IntegrationDivergedError as err:
        log.aborted = str(err)
    except np.linalg.LinAlgError as err:  # a ValueError: it must not read as a bad config
        log.aborted = f"linear algebra failure: {err}"
    return log


def swingup_success(log: SimLog, t_min: float = 5.0, tol: float = 0.05) -> bool:
    """True when |theta| and |p| stay below tol for every sample with t >= t_min."""
    ok = True
    seen = False
    for t, x in zip(log.t, log.x):
        if t >= t_min:
            seen = True
            ok = ok and abs(x[0]) < tol and abs(x[1]) < tol
    return ok and seen


# --- output files -------------------------------------------------------------

def _fmt(v) -> str:
    return f"{v:.12g}"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def timing_summary(log: SimLog) -> dict:
    """Float sums, medians and maxima (0.0 if empty) of phase timings in ms and QP iterations."""
    columns = {phase: [tm[phase] * 1e3 for tm in log.timings]
               for phase in ("shooting", "condensing", "qp", "total")}
    columns["qp_iters"] = log.qp_iters
    return {name: {"sum": float(sum(vals)),
                   "median": float(statistics.median(vals)) if vals else 0.0,
                   "max": float(max(vals, default=0))}
            for name, vals in columns.items()}


def summary_text(log: SimLog) -> list[str]:
    lines = []
    for phase, s in timing_summary(log).items():
        lines.append(f"{phase}: sum={_fmt(s['sum'])} median={_fmt(s['median'])} "
                     f"max={_fmt(s['max'])}")
    if log.kkt:
        med = statistics.median(r.total for r in log.kkt)
        lines.append(f"kkt_total: median={_fmt(med)}")
    lines.append(f"samples = {len(log)}")
    lines.append(f"flagged_samples = {sum(log.flags)}")
    if log.aborted:
        lines.append(f"aborted = {log.aborted}")
    return lines


def write_outputs(log: SimLog, out_dir: str) -> None:
    """Write traj.csv, kkt.csv, timing.csv and meta.txt into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    nx = len(log.x[0]) if log.x else PENDULUM_DIMS.nx
    nu = len(log.u[0]) if log.u else PENDULUM_DIMS.nu
    _write_csv(os.path.join(out_dir, "traj.csv"),
               ["t"] + [f"x{i}" for i in range(nx)] + [f"u{i}" for i in range(nu)],
               [[t] + list(map(float, x)) + list(map(float, u))
                for t, x, u in zip(log.t, log.x, log.u)])
    _write_csv(os.path.join(out_dir, "kkt.csv"),
               ["t", "stationarity", "eq_residual", "ineq_violation", "total"],
               [[t, k.stationarity, k.eq_residual, k.ineq_violation, k.total]
                for t, k in zip(log.t, log.kkt)])
    _write_csv(os.path.join(out_dir, "timing.csv"),
               ["step", "shooting_ms", "condensing_ms", "qp_ms", "total_ms", "qp_iters"],
               [[i, tm["shooting"] * 1e3, tm["condensing"] * 1e3, tm["qp"] * 1e3,
                 tm["total"] * 1e3, it]
                for i, (tm, it) in enumerate(zip(log.timings, log.qp_iters))])
    with open(os.path.join(out_dir, "meta.txt"), "w") as fh:
        for line in log.config:
            fh.write(line + "\n")
        fh.write("\n")
        for line in summary_text(log):
            fh.write(line + "\n")


# --- condensing benchmark ------------------------------------------------------

def synthetic_stage_data(rng: np.random.Generator, N: int, nx: int, nu: int,
                         M: int, nc: int = 0, ncN: int = 0) -> StageData:
    """Random Gauss-Newton stage data with non-exploding sensitivities.

    M sizes the per-block input bounds, which are infinite.  Nodes 1..N-1
    carry nc state rows each and node N carries ncN terminal rows.
    """
    As = rng.standard_normal((N, nx, nx))
    for k in range(N):
        As[k] /= max(np.linalg.norm(As[k], 2), 1e-9)
    Bs = rng.standard_normal((N, nx, nu))
    ds = rng.standard_normal((N, nx)) * 0.1
    Qs = np.zeros((N, nx, nx))
    Rs = np.zeros((N, nu, nu))
    for k in range(N):
        m = rng.standard_normal((nx, nx))
        Qs[k] = m.T @ m / nx
        m = rng.standard_normal((nu, nu))
        Rs[k] = m.T @ m / nu + np.eye(nu)
    m = rng.standard_normal((nx, nx))
    QN = m.T @ m / nx
    Cx, c = np.zeros((N - 1, nc, nx)), np.zeros((N - 1, nc))
    for k in range(N - 1):
        Cx[k] = rng.standard_normal((nc, nx))
        c[k] = rng.standard_normal(nc)
    qs, rs = rng.standard_normal((N, nx)), rng.standard_normal((N, nu))
    qN = rng.standard_normal(nx)
    CxN, cN = rng.standard_normal((ncN, nx)), rng.standard_normal(ncN)
    return StageData(
        As=As, Bs=Bs, ds=ds, Qs=Qs, Rs=Rs, qs=qs, rs=rs, QN=QN, qN=qN,
        Cx=Cx, c=c, CxN=CxN, cN=cN, dx0=rng.standard_normal(nx) * 0.1,
        du_lo=np.full((M, nu), -np.inf), du_hi=np.full((M, nu), np.inf))


def bench_condensing(nx: int, nu: int, M_fixed: int, N_list, reps: int,
                     seed: int = 0) -> list[dict]:
    """Tailored vs naive condensing on synthetic data: times and multiply counts.

    nx, nu, M_fixed, reps and each N of the non-empty ``N_list`` must be at
    least 1, and every N must divide into M_fixed equal-length blocks.
    Reported times are medians over ``reps`` runs; multiply counts are deterministic.
    The tailored runs use the structure's cached workspace, looked up before
    the timed runs, so they time the path a controller runs, not the build.
    """
    if not N_list:
        raise ValueError("N must list at least one interval count")
    for name, value in (("nx", nx), ("nu", nu), ("M", M_fixed), ("reps", reps), ("N", min(N_list))):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    bad = [N for N in N_list if N % M_fixed]
    if bad:
        raise ValueError(f"N = {bad[0]} is not divisible into {M_fixed} equal blocks")
    rng = np.random.default_rng(seed)
    rows = []
    for N in N_list:
        bs = from_block_lengths([N // M_fixed] * M_fixed)
        sd = synthetic_stage_data(rng, N, nx, nu, M=M_fixed, nc=1, ncN=1)
        workspace(bs, nx, nu)

        t_tailored, t_naive = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            condense(sd, bs)
            t_tailored.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            naive_condense(sd, bs)
            t_naive.append(time.perf_counter() - t0)

        c_tailored = FlopCounter()
        condense(sd, bs, c_tailored)
        c_naive = FlopCounter()
        naive_condense(sd, bs, c_naive)
        c_hhat = FlopCounter()
        Ghat = compute_Ghat(sd, bs)
        compute_Hhat(sd, bs, Ghat, c_hhat)

        rows.append({
            "N": N, "M": M_fixed,
            "tailored_ms": statistics.median(t_tailored) * 1e3,
            "naive_ms": statistics.median(t_naive) * 1e3,
            "tailored_mults": c_tailored.mults,
            "naive_mults": c_naive.mults,
            "hhat_mults": c_hhat.mults,
        })
    return rows


def write_bench(rows: list[dict], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    header = ["N", "M", "tailored_ms", "naive_ms", "tailored_mults", "naive_mults",
              "hhat_mults"]
    _write_csv(os.path.join(out_dir, "bench.csv"), header,
               [[row[h] if isinstance(row[h], int) else float(row[h]) for h in header]
                for row in rows])


# --- scheme comparison ----------------------------------------------------------

def compare_schemes(cfg: SchemeConfig, out_dir: str) -> dict:
    """Run schemes A, B and C with one tuning and write per-scheme outputs.

    All three configs are validated before any run, so a bad one writes
    nothing.  Returns {scheme: SimLog}; a summary table lands in out_dir/summary.csv.
    """
    cfgs = {scheme: cfg.with_scheme(scheme) for scheme in ("A", "B", "C")}
    logs = {}
    for scheme, scheme_cfg in cfgs.items():
        log = run_closed_loop(scheme_cfg)
        write_outputs(log, os.path.join(out_dir, f"scheme_{scheme}"))
        logs[scheme] = log

    header = ["scheme", "median_shooting_ms", "median_condensing_ms", "median_qp_ms",
              "median_total_ms", "max_total_ms", "median_kkt_total", "swingup",
              "flagged_samples"]
    rows = []
    for scheme, log in logs.items():
        summ = timing_summary(log)
        med_kkt = statistics.median(r.total for r in log.kkt) if log.kkt else 0.0
        rows.append([scheme, summ["shooting"]["median"], summ["condensing"]["median"],
                     summ["qp"]["median"], summ["total"]["median"], summ["total"]["max"],
                     med_kkt, int(swingup_success(log)), sum(log.flags)])
    _write_csv(os.path.join(out_dir, "summary.csv"), header, rows)
    return logs
