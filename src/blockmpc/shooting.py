"""Stage-wise QP data assembly at the current linearization point.

The linearization point is a trajectory of N+1 node states and M blocked
inputs.  Every shooting interval k is integrated with the input of its
block, so the stage data keeps N dynamic stages and N+1 cost stages
regardless of M: blocking reduces the degrees of freedom without
coarsening the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocking import BlockStructure
from .integrator import IntegrationDivergedError, integrate_interval
from .model import OcpProblem, stage_cost_terms


@dataclass
class Trajectory:
    """Linearization point: node states xs (N+1, nx) and blocked inputs us (M, nu)."""

    xs: np.ndarray
    us: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.us = np.asarray(self.us, dtype=float)
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.us))):
            raise ValueError("trajectory entries must be finite")


@dataclass
class StageData:
    """Per-node linearization data of the blocked stage-wise QP.

    Dynamic stages k = 0..N-1 carry sensitivities (A, B), shooting residual
    d_k = phi(x_k, u_block(k)) - x_{k+1}, Gauss-Newton Hessian blocks and
    cost gradients.  Like Qs and QN, the affine state rows Cx dx_k + c <= 0
    are stage rows Cx (N-1, nc, nx), c (N-1, nc) of node k = 1..N-1 at k-1
    and terminal rows CxN (ncN, nx), cN (ncN,); node 0, fixed by the
    embedding, has none.  ``dx0`` is the embedding residual x0_measured - x_0.
    Input box bounds appear once per block as bounds on the input step.
    From ``evaluate``, Qs, Rs, QN, Cx and CxN are shared read-only ``constants``.
    """

    As: np.ndarray
    Bs: np.ndarray
    ds: np.ndarray
    Qs: np.ndarray
    Rs: np.ndarray
    qs: np.ndarray
    rs: np.ndarray
    QN: np.ndarray
    qN: np.ndarray
    Cx: np.ndarray
    c: np.ndarray
    CxN: np.ndarray
    cN: np.ndarray
    dx0: np.ndarray
    du_lo: np.ndarray
    du_hi: np.ndarray

    @property
    def N(self) -> int:
        return self.As.shape[0]

    @property
    def nx(self) -> int:
        return self.As.shape[1]

    @property
    def nu(self) -> int:
        return self.Bs.shape[2]


def check_grid(problem: OcpProblem, bs: BlockStructure) -> None:
    """Raise ValueError unless the problem and the block structure have the same N."""
    if problem.N != bs.N:
        raise ValueError("problem grid and block structure disagree on N")


def forward_simulate(problem: OcpProblem, bs: BlockStructure, x0: np.ndarray,
                     us: np.ndarray) -> Trajectory:
    """Simulate the shooting nodes forward from x0 under blocked inputs us, in order.

    The nodes are stepped one by one by ``problem.state_step``, which gets
    the state as a sequence of nx floats (a list at node 0, then what the
    previous step returned) and the input as an (nu,) row of ``us`` (the
    cart-pole kernel steps in floats, the generic step in arrays); the first
    non-finite node raises.
    """
    check_grid(problem, bs)
    us = np.atleast_2d(np.asarray(us, dtype=float))
    if us.shape != (bs.M, problem.dims.nu):
        raise ValueError(f"expected {bs.M} blocked inputs of width {problem.dims.nu}, "
                         f"got shape {us.shape}")
    step, blocks, hs = problem.state_step, bs.blocks.tolist(), problem.hs.tolist()
    x = np.asarray(x0, dtype=float).tolist()
    xs = [x]
    for k in range(bs.N):
        x = step(x, us[blocks[k]], hs[k])
        if not all(map(math.isfinite, x)):
            raise IntegrationDivergedError(node=k)
        xs.append(x)
    return Trajectory(xs=np.array(xs), us=us)


def evaluate(problem: OcpProblem, bs: BlockStructure, traj: Trajectory,
             x0_measured: np.ndarray) -> StageData:
    """Linearize the blocked problem at ``traj`` with measured initial state.

    Every interval in block j is integrated with u_hat_j; the residuals
    d_k close the shooting gaps, and dx0 embeds the new measurement.  The
    intervals are independent at a fixed trajectory: one batched RK4 step.
    The finite state bounds give the same rows at each of nodes 1..N, with
    constants c = CxN x_k + c0.  The Hessians, QN, Cx and CxN are the
    problem's read-only ``constants``, shared by every call.
    """
    check_grid(problem, bs)
    N, M = bs.N, bs.M
    nx, nu = problem.dims.nx, problem.dims.nu
    xs = traj.xs
    if xs.shape != (N + 1, nx) or traj.us.shape != (M, nu):
        raise ValueError("trajectory shape inconsistent with problem/blocking")
    us = traj.us[bs.blocks]  # (N, nu): the input of each interval
    consts, bounds, cost = problem.constants, problem.bounds, problem.cost

    x_end, As, Bs = integrate_interval(problem.hs, problem.tangent, xs[:N].T, us.T)
    q, r = stage_cost_terms(xs[:N], us, cost)
    w = problem.weight_scales[:, None]
    c = xs[1:].dot(consts.CxN.T) + consts.c0

    return StageData(As=As, Bs=Bs, ds=x_end.T - xs[1:], Qs=consts.Qs, Rs=consts.Rs,
                     qs=w * q, rs=w * r, QN=consts.QN, qN=cost.QN.dot(xs[N] - cost.x_ref),
                     Cx=consts.Cx, c=c[:-1], CxN=consts.CxN, cN=c[-1],
                     dx0=np.asarray(x0_measured, dtype=float) - xs[0],
                     du_lo=bounds.u_lo - traj.us, du_hi=bounds.u_hi - traj.us)
