"""Real-time iteration loop: one linearize-condense-solve cycle per sample.

Each sampling instant performs a prepare phase (shooting linearization and
tailored condensing) and a feedback phase (warm-started QP solve, expansion
of the state steps, full Newton update of the trajectory).  The carried
trajectory is the updated iterate; the initial-value embedding absorbs the
mismatch with the next measurement, and the optimality report combines the
post-step stationarity with the shooting gaps seen at this linearization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocking import BlockStructure, block_sums, interval_blocks
from .condensing import SensitivityChain, condense, expand
from .integrator import IntegrationDivergedError
from .model import OcpProblem
from .qp_solver import DenseQp, QpSolution, WorkingSet, solve_qp
from .shooting import StageData, Trajectory, evaluate, forward_simulate


@dataclass
class KktReport:
    """Optimality measure: infinity norms of the three KKT condition groups."""

    stationarity: float
    eq_residual: float
    ineq_violation: float

    @property
    def total(self) -> float:
        return self.stationarity + self.eq_residual + self.ineq_violation


@dataclass
class RtiState:
    """Controller state carried between samples."""

    traj: Trajectory
    ws: WorkingSet = field(default_factory=WorkingSet)
    last_kkt: KktReport | None = None
    timings: dict = field(default_factory=dict)
    qp_iterations: int = 0
    qp_status: str = ""
    qp_start: str = ""


@dataclass
class PrepareOutput:
    """Products of the prepare phase, consumed by feedback."""

    qp: DenseQp
    chain: SensitivityChain
    sd: StageData
    timings: dict


def stationarity_blocks(sd: StageData, bs: BlockStructure, dxs: np.ndarray,
                        du: np.ndarray, lam_rows: np.ndarray,
                        lam_lb: np.ndarray, lam_ub: np.ndarray) -> np.ndarray:
    """Blocked Lagrangian gradient at (dxs, du) as an (M, nu) array.

    ``lam_rows`` holds one multiplier per row of ``sd.rows`` (the QP's row
    order).  Costates come from the
    backward adjoint recursion with Cx' mu folded in per node; block j
    accumulates the per-interval stationarity components of its intervals,
    which makes it the T-transpose of the unblocked stationarity vector.
    """
    N, M = bs.N, bs.M
    nx, nu = sd.nx, sd.nu
    du = np.asarray(du, dtype=float).reshape(M, nu)
    uk = du[interval_blocks(bs)]
    Cx, Cu, _, row_node = sd.rows
    mu = np.asarray(lam_rows, dtype=float)[:, None]
    CxTmu = np.zeros((N + 1, nx))
    CuTmu = np.zeros((N + 1, nu))
    np.add.at(CxTmu, row_node, Cx * mu)
    np.add.at(CuTmu, row_node, Cu * mu)

    lam = np.empty((N + 1, nx))  # filled with all but the A' lam term, then swept
    lam[:N] = (sd.qs + (sd.Qs @ dxs[:N, :, None] + sd.Ss @ uk[:, :, None])[:, :, 0]
               + CxTmu[:N])
    lam[N] = sd.qN + sd.QN @ dxs[N] + CxTmu[N]
    lk = list(lam)
    for k in range(N - 1, -1, -1):
        lk[k] += sd.As[k].T.dot(lk[k + 1])
    stage = (sd.rs + CuTmu[:N]
             + (sd.Rs @ uk[:, :, None] + np.swapaxes(sd.Ss, 1, 2) @ dxs[:N, :, None]
                + np.swapaxes(sd.Bs, 1, 2) @ lam[1:, :, None])[:, :, 0])
    return (lam_ub - lam_lb).reshape(M, nu) + block_sums(stage, bs.I)


def kkt_residual(sd: StageData, bs: BlockStructure, dxs: np.ndarray,
                 du: np.ndarray, sol: QpSolution | None) -> KktReport:
    """KKT condition norms of the blocked problem at the point (dxs, du).

    The equality residual reports the shooting gaps together with the
    initial-embedding residual evaluated at the point, which is
    ``dx0 - dxs[0]`` and hence vanishes after a full Newton step.  The
    inequality part evaluates ``sd.rows`` and the input bounds; the
    multipliers of ``sol`` belong to the QP condensed from ``sd``.
    ``sol = None`` (or a solution with a different row count than
    ``sd.rows``) means zero multipliers.
    """
    M, nu = bs.M, sd.nu
    du = np.asarray(du, dtype=float).reshape(M, nu)
    Cx, Cu, c, nodes = sd.rows

    lam_rows = np.zeros(len(nodes))
    lam_lb = np.zeros(M * nu)
    lam_ub = np.zeros(M * nu)
    if sol is not None and len(sol.lam_rows) == len(nodes) \
            and len(sol.lam_lb) == M * nu:
        lam_rows, lam_lb, lam_ub = sol.lam_rows, sol.lam_lb, sol.lam_ub

    g_stat = stationarity_blocks(sd, bs, dxs, du, lam_rows, lam_lb, lam_ub)
    stationarity = float(np.abs(g_stat).max(initial=0.0))
    eq = max(float(np.abs(sd.ds).max(initial=0.0)),
             float(np.abs(sd.dx0 - dxs[0]).max(initial=0.0)))
    row_block = np.append(interval_blocks(bs), 0)[nodes]  # terminal rows: Cu = 0
    rows = (np.einsum("rx,rx->r", Cx, dxs[nodes])
            + np.einsum("ru,ru->r", Cu, du[row_block]) + c)
    viol = max(float(rows.max(initial=0.0)),
               float((du - sd.du_hi.reshape(M, nu)).max(initial=0.0)),
               float((sd.du_lo.reshape(M, nu) - du).max(initial=0.0)))
    return KktReport(stationarity=stationarity, eq_residual=eq, ineq_violation=viol)


class RtiController:
    """One real-time-iteration controller instance for a fixed block structure."""

    def __init__(self, problem: OcpProblem, bs: BlockStructure, qp_tol: float = 1e-8,
                 qp_max_iter: int | None = None):
        if problem.N != bs.N:
            raise ValueError("problem grid and block structure disagree on N")
        self.problem = problem
        self.bs = bs
        self.qp_tol = qp_tol
        self.qp_max_iter = qp_max_iter

    def initial_state(self, x0: np.ndarray, us0: np.ndarray | None = None) -> RtiState:
        """Feasible starting point: simulate the nodes forward under us0 (default zero)."""
        nu = self.problem.dims.nu
        us = np.zeros((self.bs.M, nu)) if us0 is None else np.asarray(us0, dtype=float)
        traj = forward_simulate(self.problem, self.bs, np.asarray(x0, dtype=float), us)
        return RtiState(traj=traj)

    def prepare(self, state: RtiState, x0_measured: np.ndarray) -> PrepareOutput:
        """Shooting linearization and tailored condensing, with phase timings.

        The linearization point is the carried Newton-updated trajectory;
        the new measurement enters through the initial-value embedding.
        (Re-simulating the nodes from the measurement under the held inputs
        instead loses the multiple-shooting memory and fails to stabilize
        the unstable plant over long horizons.)
        """
        t0 = time.perf_counter()
        sd = evaluate(self.problem, self.bs, state.traj, x0_measured)
        t1 = time.perf_counter()
        qp, chain = condense(sd, self.bs)
        t2 = time.perf_counter()
        timings = {"shooting": t1 - t0, "condensing": t2 - t1, "prepare_total": t2 - t0}
        return PrepareOutput(qp=qp, chain=chain, sd=sd, timings=timings)

    def feedback(self, state: RtiState, prep: PrepareOutput,
                 x0_measured: np.ndarray):
        """Solve the condensed QP, expand, and take the full Newton step.

        The reported KKT is evaluated after the full Newton step, at the
        updated primal-dual point: its stationarity reflects the accuracy
        of the QP solve, its equality part the shooting gaps the step had
        to close (the nonlinearity error of the previous iterate; the
        measurement innovation itself is absorbed exactly and contributes
        nothing).  ``state`` is the state ``prep`` was prepared from.
        """
        t0 = time.perf_counter()
        sol = solve_qp(prep.qp, warm=state.ws, tol=self.qp_tol, max_iter=self.qp_max_iter)
        t_qp = time.perf_counter() - t0
        du = sol.z
        dxs = expand(prep.chain.Ghat, prep.chain.L, prep.sd.dx0, du)
        if not (np.all(np.isfinite(dxs)) and np.all(np.isfinite(du))):
            raise IntegrationDivergedError("trajectory update diverged")
        traj = Trajectory(xs=state.traj.xs + dxs,
                          us=state.traj.us + du.reshape(self.bs.M, self.problem.dims.nu))
        kkt = kkt_residual(prep.sd, self.bs, dxs, du, sol)
        t_total = prep.timings["prepare_total"] + (time.perf_counter() - t0)
        timings = {"shooting": prep.timings["shooting"],
                   "condensing": prep.timings["condensing"],
                   "qp": t_qp, "total": t_total}
        new_state = RtiState(traj=traj, ws=sol.ws, last_kkt=kkt, timings=timings,
                             qp_iterations=sol.iterations, qp_status=sol.status,
                             qp_start=sol.start)
        u_applied = traj.us[0].copy()
        return u_applied, new_state

    def step(self, state: RtiState, x0_measured: np.ndarray):
        """Full RTI cycle: prepare, then feedback.  Returns (u_applied, state).

        The returned state is the next sample's warm start: the blocked
        inputs carry over unshifted (block boundaries are fixed relative to
        the horizon, so a one-interval shift has no consistent blocked
        representation), and so does the working set.
        """
        return self.feedback(state, self.prepare(state, x0_measured), x0_measured)
