"""Real-time iteration loop: one linearize-condense-solve cycle per sample.

Each sampling instant performs a prepare phase (shooting linearization and
tailored condensing) and a feedback phase (warm-started QP solve, expansion
of the state steps, full Newton update of the trajectory).  The carried
trajectory is the updated iterate; the initial-value embedding absorbs the
mismatch with the next measurement.  Condensing is exact, so the optimality
report is the residual of the condensed QP at the step just taken, together
with the shooting gaps seen at this linearization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocking import BlockStructure
from .condensing import SensitivityChain, condense, expand
from .integrator import IntegrationDivergedError
from .model import OcpProblem
from .qp_solver import DenseQp, QpSolution, solve_qp
from .shooting import StageData, Trajectory, check_grid, evaluate, forward_simulate


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
    sol: QpSolution | None = None  # the last QP solution; its working set is the warm start
    last_kkt: KktReport | None = None
    timings: dict = field(default_factory=dict)


@dataclass
class PrepareOutput:
    """Products of the prepare phase, consumed by feedback."""

    qp: DenseQp
    chain: SensitivityChain
    sd: StageData
    timings: dict


def kkt_residual(qp: DenseQp, sol: QpSolution, ds: np.ndarray) -> KktReport:
    """KKT condition norms at the step: the residual of the condensed QP.

    ``sol`` holds the step z and the multipliers of ``qp`` (a solution with
    other multiplier counts raises ValueError), and ``ds`` the shooting gaps
    of the stage data ``qp`` was condensed from.  Condensing is exact: at
    the expanded point dx_{k+1} = Ghat[k] z + L[k] the stage recursion holds,
    the node rows are the condensed rows, and the blocked Lagrangian gradient
    is H z + g + Crows' lam_rows + lam_ub - lam_lb, for any z and any
    multipliers (a dual iterate too).  The equality residual is the gaps.
    """
    if (len(sol.lam_rows), len(sol.lam_lb), len(sol.lam_ub)) != (qp.m, qp.n, qp.n):
        raise ValueError("kkt_residual: multiplier counts differ from the QP's rows and variables")
    z = sol.z
    grad = qp.H @ z + qp.g + qp.Crows.T @ sol.lam_rows + sol.lam_ub - sol.lam_lb
    viol = max(float((qp.Crows @ z + qp.cvec).max(initial=0.0)),
               float((z - qp.ub).max(initial=0.0)),
               float((qp.lb - z).max(initial=0.0)))
    return KktReport(stationarity=float(np.abs(grad).max(initial=0.0)),
                     eq_residual=float(np.abs(ds).max(initial=0.0)), ineq_violation=viol)


class RtiController:
    """One real-time-iteration controller instance for a fixed block structure."""

    def __init__(self, problem: OcpProblem, bs: BlockStructure, qp_tol: float = 1e-8,
                 qp_max_iter: int | None = None):
        check_grid(problem, bs)
        self.problem = problem
        self.bs = bs
        self.qp_tol = qp_tol
        self.qp_max_iter = qp_max_iter

    def initial_state(self, x0: np.ndarray) -> RtiState:
        """Feasible starting point: simulate the nodes forward under zero inputs."""
        us = np.zeros((self.bs.M, self.problem.dims.nu))
        return RtiState(traj=forward_simulate(self.problem, self.bs, x0, us))

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

        The reported KKT is that of the full Newton step: its stationarity
        and inequality parts are the condensed QP's residual at the solution,
        which reflect the accuracy of the QP solve, and its equality part
        the shooting gaps the step had to close (the nonlinearity error of
        the previous iterate; the measurement innovation itself is absorbed
        exactly and contributes nothing).  ``state`` is the state ``prep``
        was prepared from.
        """
        t0 = time.perf_counter()
        warm = state.sol.ws if state.sol is not None else ()
        sol = solve_qp(prep.qp, warm=warm, tol=self.qp_tol, max_iter=self.qp_max_iter)
        t_qp = time.perf_counter() - t0
        du = sol.z
        xs = state.traj.xs + expand(prep.chain.Ghat, prep.chain.L, prep.sd.dx0, du)
        us = state.traj.us + du.reshape(self.bs.M, self.problem.dims.nu)
        try:
            traj = Trajectory(xs=xs, us=us)  # checks finiteness: a finite step may overflow
        except ValueError:
            raise IntegrationDivergedError("trajectory update diverged") from None
        kkt = kkt_residual(prep.qp, sol, prep.sd.ds)
        t_total = prep.timings["prepare_total"] + (time.perf_counter() - t0)
        timings = {"shooting": prep.timings["shooting"],
                   "condensing": prep.timings["condensing"],
                   "qp": t_qp, "total": t_total}
        new_state = RtiState(traj=traj, sol=sol, last_kkt=kkt, timings=timings)
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
