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


def rk4_step(rhs, jac, x: np.ndarray, u: np.ndarray, h):
    """Classical RK4 steps with input held constant, with exact sensitivities.

    One step takes x (nx,), u (nu,) and a scalar h; n independent steps take
    columns x (nx, n), u (nu, n) and lengths h (n,).  Returns (x_next,
    A_step, B_step) where A_step = d x_next/d x and B_step = d x_next/d u
    are obtained by differentiating all four stages; a batch returns them
    as (n, nx, nx) and (n, nx, nu) stacks.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h2, h6 = 0.5 * h, h / 6.0
    hm = np.asarray(h)[..., None, None]  # step lengths against matrix stacks
    hm2, hm6 = 0.5 * hm, hm / 6.0
    I = np.eye(x.shape[0])

    k1 = rhs(x, u)
    J1x, J1u = jac(x, u)
    x2 = x + h2 * k1
    k2 = rhs(x2, u)
    J2x_loc, J2u_loc = jac(x2, u)
    k2x = J2x_loc @ (I + hm2 * J1x)
    k2u = J2x_loc @ (hm2 * J1u) + J2u_loc

    x3 = x + h2 * k2
    k3 = rhs(x3, u)
    J3x_loc, J3u_loc = jac(x3, u)
    k3x = J3x_loc @ (I + hm2 * k2x)
    k3u = J3x_loc @ (hm2 * k2u) + J3u_loc

    x4 = x + h * k3
    k4 = rhs(x4, u)
    J4x_loc, J4u_loc = jac(x4, u)
    k4x = J4x_loc @ (I + hm * k3x)
    k4u = J4x_loc @ (hm * k3u) + J4u_loc

    x_next = x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    A_step = I + hm6 * (J1x + 2.0 * k2x + 2.0 * k3x + k4x)
    B_step = hm6 * (J1u + 2.0 * k2u + 2.0 * k3u + k4u)

    # One sum is finite exactly when every entry is, unless finite entries
    # overflow it; only then are the columns scanned, for the first bad one.
    if not math.isfinite(x_next.sum() + A_step.sum() + B_step.sum()):
        finite = (np.isfinite(x_next).all(axis=0) & np.isfinite(A_step).all(axis=(-2, -1))
                  & np.isfinite(B_step).all(axis=(-2, -1)))
        if not finite.all():
            raise IntegrationDivergedError(node=int(np.argmin(finite)) if x.ndim == 2 else None)
    return x_next, A_step, B_step


def integrate_interval(h, rhs, jac, x: np.ndarray, u: np.ndarray):
    """Integrate shooting intervals, one RK4 step of length h each (column stacks batch)."""
    return rk4_step(rhs, jac, x, u, h)
