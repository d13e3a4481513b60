"""Real-time iteration loop: one linearize-condense-solve cycle per sample.

Each sampling instant performs a prepare phase (shooting linearization and
tailored condensing) and a feedback phase (warm-started QP solve, expansion
of the state steps, full Newton update of the trajectory).  The carried
trajectory is the updated iterate; the initial-value embedding absorbs the
mismatch with the next measurement, and the optimality report combines the
post-step stationarity (one product with condensing's Ghat, no loop over the
nodes) with the shooting gaps seen at this linearization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocking import BlockStructure, block_sums
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


def stationarity_blocks(sd: StageData, bs: BlockStructure, Ghat: np.ndarray,
                        dxs: np.ndarray, du: np.ndarray, lam_rows: np.ndarray,
                        lam_lb: np.ndarray, lam_ub: np.ndarray) -> np.ndarray:
    """Blocked Lagrangian gradient at (dxs, du) as an (M, nu) array.

    ``lam_rows`` holds one multiplier per row of ``sd.rows`` (the QP's row
    order).  With v_k = q_k + Q_k dx_k + Cx_k' mu_k the state gradient of the
    Lagrangian at node k (qN, QN and the terminal rows at k = N), the costate
    terms of block j are sum_k Ghat[k-1, j]' v_k: one product of the stacked
    v_k with Ghat, as in ``compute_ghat``.  Block j adds the sums of
    r_k + R_k u_j over its own stages, which makes the result the
    T-transpose of the unblocked stationarity vector.  A row at node 0
    raises ValueError.
    """
    N, M, nx, nu = bs.N, bs.M, sd.nx, sd.nu
    du = np.asarray(du, dtype=float).reshape(M, nu)
    Cx, _, row_node = sd.rows
    if len(row_node) and row_node[0] < 1:
        raise ValueError("stationarity_blocks takes rows at nodes 1..N only, not node 0")
    vs = np.zeros((N, nx))  # v_1, ..., v_N
    np.add.at(vs, row_node - 1, Cx * np.asarray(lam_rows, dtype=float)[:, None])
    vs[:-1] += sd.qs[1:] + (sd.Qs[1:] @ dxs[1:N, :, None])[:, :, 0]
    vs[-1] += sd.qN + sd.QN @ dxs[N]
    stage = sd.rs + (sd.Rs @ du[bs.blocks][:, :, None])[:, :, 0]
    Gm = Ghat.transpose(0, 2, 1, 3).reshape(N * nx, M * nu)
    return ((lam_ub - lam_lb).reshape(M, nu) + block_sums(stage, bs.sum_rows)
            + (vs.reshape(N * nx) @ Gm).reshape(M, nu))


def kkt_residual(sd: StageData, bs: BlockStructure, Ghat: np.ndarray, dxs: np.ndarray,
                 du: np.ndarray, sol: QpSolution | None) -> KktReport:
    """KKT condition norms of the blocked problem at the point (dxs, du).

    ``Ghat`` is the blocked sensitivity chain of ``sd`` (``compute_Ghat``).
    The equality residual reports the shooting gaps together with the
    initial-embedding residual evaluated at the point, which is
    ``dx0 - dxs[0]`` and hence vanishes after a full Newton step.  The
    inequality part evaluates ``sd.rows`` and the input bounds; the
    multipliers of ``sol`` belong to the QP condensed from ``sd``; a
    solution with other multiplier counts raises ValueError.  ``sol = None``
    means zero multipliers.
    """
    M, nu = bs.M, sd.nu
    du = np.asarray(du, dtype=float).reshape(M, nu)
    Cx, c, nodes = sd.rows

    lam_rows, lam_lb, lam_ub = np.zeros(len(nodes)), np.zeros(M * nu), np.zeros(M * nu)
    if sol is not None:
        if (len(sol.lam_rows), len(sol.lam_lb), len(sol.lam_ub)) != (len(nodes), M * nu, M * nu):
            raise ValueError("kkt_residual: multiplier counts differ from sd.rows and M*nu")
        lam_rows, lam_lb, lam_ub = sol.lam_rows, sol.lam_lb, sol.lam_ub

    g_stat = stationarity_blocks(sd, bs, Ghat, dxs, du, lam_rows, lam_lb, lam_ub)
    stationarity = float(np.abs(g_stat).max(initial=0.0))
    eq = max(float(np.abs(sd.ds).max(initial=0.0)),
             float(np.abs(sd.dx0 - dxs[0]).max(initial=0.0)))
    rows = np.einsum("rx,rx->r", Cx, dxs[nodes]) + c
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
        kkt = kkt_residual(prep.sd, self.bs, prep.chain.Ghat, dxs, du, sol)
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
