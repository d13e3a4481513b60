"""Fixed-step RK4 integration with exact forward sensitivities.

Sensitivities are the Jacobians of the discrete RK4 map itself (chain rule
through the four stages), not of the exact flow, so they are consistent
with the states the shooting step actually produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class IntegrationDivergedError(RuntimeError):
    """Integration produced a non-finite state; ``node`` is the shooting node
    (a batch's first failing column) if known."""

    def __init__(self, message: str = "integration diverged", node: int | None = None):
        super().__init__(message if node is None else f"{message} at shooting node {node}")
        self.node = node


@dataclass(frozen=True)
class IntegratorConfig:
    """One RK4 step of length h spans the shooting interval."""

    h: float

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError(f"invalid integrator config {self}")


def rk4_state_step(rhs, x, u, h):
    """One classical RK4 step of a single state x (nx,), input held constant.

    x may be any sequence of nx floats; rhs always receives (nx,) arrays.
    Returns x + (h/6)(k1 + 2 k2 + 2 k3 + k4) as an (nx,) array.
    """
    x = np.asarray(x, dtype=float)
    h2, h6 = 0.5 * h, h / 6.0
    k1 = rhs(x, u)
    k2 = rhs(x + h2 * k1, u)
    k3 = rhs(x + h2 * k2, u)
    k4 = rhs(x + h * k3, u)
    return x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def jacobian_tangent(rhs, jac):
    """The tangent of a problem given by rhs and jac: (x, u, S) -> (rhs(x, u), Jx S + [0 | Ju]).

    S is a stage's tangent d(stage state)/d(x, u), (nx, nx+nu) for one state
    and (nx, nx+nu, n) for n columns, or (nx, nx+nu, 1) broadcast over them.
    """
    def tangent(x, u, S):
        Jx, Ju = jac(x, u)
        OJu = np.concatenate([np.zeros(np.shape(Ju)[:-1] + (S.shape[0],)), Ju], axis=-1)
        return rhs(x, u), np.moveaxis(Jx @ np.moveaxis(S, (0, 1), (-2, -1)) + OJu, (-2, -1), (0, 1))
    return tangent


def integrate_interval(h, tangent, x: np.ndarray, u: np.ndarray):
    """One classical RK4 step of length h, input held constant, with exact sensitivities.

    One step takes x (nx,), u (nu,) and a scalar h; n independent steps take
    columns x (nx, n), u (nu, n) and lengths h (n,).  ``tangent(x, u, S)``
    returns the state derivative f and its directional derivative along the
    stage's tangent S = d(stage state)/d(x, u), so each stage is one call
    and the tangents of the four stages ride along with the states (forward
    variational equations); the first stage's S is the seed [I | 0], which
    broadcasts over the columns.  Returns (x_next, A_step, B_step) where A_step =
    d x_next/d x and B_step = d x_next/d u; a batch returns them as
    (n, nx, nx) and (n, nx, nu) views of one (n, nx, nx+nu) array.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    nx, nu = x.shape[0], u.shape[0]
    h2, h6 = 0.5 * h, h / 6.0
    S1 = np.eye(nx, nx + nu).reshape((nx, nx + nu) + (1,) * (x.ndim - 1))

    k1, K1 = tangent(x, u, S1)
    k2, K2 = tangent(x + h2 * k1, u, S1 + h2 * K1)
    k3, K3 = tangent(x + h2 * k2, u, S1 + h2 * K2)
    k4, K4 = tangent(x + h * k3, u, S1 + h * K3)

    x_next = x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    AB = np.empty(x.shape[1:] + (nx, nx + nu))
    G = AB.transpose(1, 2, 0) if x.ndim == 2 else AB  # the stage tangents' layout
    np.add(S1, h6 * (K1 + 2.0 * K2 + 2.0 * K3 + K4), out=G)

    # One sum is finite exactly when every entry is, unless finite entries
    # overflow it; only then are the columns scanned, for the first bad one.
    if not math.isfinite(x_next.sum() + AB.sum()):
        finite = np.isfinite(x_next).all(axis=0) & np.isfinite(AB).all(axis=(-2, -1))
        if not finite.all():
            raise IntegrationDivergedError(node=int(np.argmin(finite)) if x.ndim == 2 else None)
    return x_next, AB[..., :nx], AB[..., nx:]


def rk4_step(rhs, jac, x: np.ndarray, u: np.ndarray, h):
    """``integrate_interval`` over the tangent of rhs and its Jacobians, ``jacobian_tangent``."""
    return integrate_interval(h, jacobian_tangent(rhs, jac), x, u)
