"""Continuous-time problem ingredients: dynamics, quadratic cost, box constraints.

The concrete plant is a cart-pole (inverted pendulum on a cart).  State is
x = [p, theta, p_dot, theta_dot] with p the cart position and theta the
pole angle measured from the upright position (theta = pi hangs down);
the input is the horizontal force u on the cart.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .integrator import IntegratorConfig, jacobian_tangent, rk4_state_step


@dataclass(frozen=True)
class ProblemDims:
    """Dimensions of the stage-wise problem."""

    nx: int
    nu: int

    def __post_init__(self):
        if self.nx < 1 or self.nu < 1:
            raise ValueError(f"invalid dimensions {self}")


PENDULUM_DIMS = ProblemDims(nx=4, nu=1)  # cart position, pole angle and their rates; force


@dataclass(frozen=True)
class PendulumParams:
    """Cart-pole physical parameters: pole mass m1, cart mass m2, pole length l, gravity g."""

    m1: float = 0.1
    m2: float = 1.0
    l: float = 0.8
    g: float = 9.81

    def __post_init__(self):
        if min(self.m1, self.m2, self.l, self.g) <= 0.0:
            raise ValueError(f"pendulum parameters must be positive, got {self}")


@dataclass
class QuadraticCost:
    """Tracking cost 0.5*||x - x_ref||_Q^2 + 0.5*||u - u_ref||_R^2 per stage.

    Q and QN must be symmetric positive semidefinite, R symmetric positive
    definite.  The references are single vectors, held constant over the
    horizon.
    """

    Q: np.ndarray
    R: np.ndarray
    QN: np.ndarray
    x_ref: np.ndarray
    u_ref: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.QN = np.atleast_2d(np.asarray(self.QN, dtype=float))
        self.x_ref = np.asarray(self.x_ref, dtype=float)
        self.u_ref = np.asarray(self.u_ref, dtype=float)
        for name, W in (("Q", self.Q), ("R", self.R), ("QN", self.QN)):
            # exact symmetry is the cheap test; allclose decides only what it rejects
            if not ((W == W.T).all() or np.allclose(W, W.T, atol=1e-12)):
                raise ValueError(f"{name} must be symmetric")
        for name, ref, W in (("x_ref", self.x_ref, self.Q), ("u_ref", self.u_ref, self.R)):
            if ref.shape != (W.shape[0],):
                raise ValueError(f"{name} must be a vector of length {W.shape[0]}, "
                                 f"got shape {ref.shape}")
        # R must be PD for the condensed Hessian to be PD.
        np.linalg.cholesky(self.R)


@dataclass
class StageBounds:
    """Componentwise box bounds; use +-inf for unconstrained components."""

    x_lo: np.ndarray
    x_hi: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray

    def __post_init__(self):
        self.x_lo = np.asarray(self.x_lo, dtype=float)
        self.x_hi = np.asarray(self.x_hi, dtype=float)
        self.u_lo = np.asarray(self.u_lo, dtype=float)
        self.u_hi = np.asarray(self.u_hi, dtype=float)
        if np.any(self.x_lo > self.x_hi) or np.any(self.u_lo > self.u_hi):
            raise ValueError("lower bounds must not exceed upper bounds")

    @staticmethod
    def unbounded(nx: int, nu: int) -> "StageBounds":
        inf = np.inf
        return StageBounds(-inf * np.ones(nx), inf * np.ones(nx),
                           -inf * np.ones(nu), inf * np.ones(nu))


def pendulum_rhs(x: np.ndarray, u, params: PendulumParams, S: np.ndarray | None = None):
    """Cart-pole state derivative f = [p_dot, theta_dot, p_ddot, theta_ddot].

    x is one state (4,) or a column stack (4, n); f has its shape.
    ``pendulum_state_step`` is the same dynamics for one state in floats.
    Given a stage tangent S (4, 5) or (4, 5, n) (or (4, 5, 1), broadcast
    over the columns), it returns (f, K) with K = J_x S + [0 | J_u] of
    shape (4, 5) plus x's columns, the fused stage call of
    ``integrate_interval``: the derivatives reuse f's sin, cos, den,
    w^2 (w = theta_dot) and accelerations, and K's rows 0-1 are S's rows 2-3.  The
    accelerations solve (m1 + m2) p_dd - m1 l c th_dd = u - m1 l s w^2 and
    l th_dd = c p_dd + g s (den = m2 + m1 - m1 c^2 is the determinant), so
    with q = g c - s p_dd their differentials are
    den dp_dd = du + m1 (c q - l (s th_dd + c w^2)) dtheta - 2 m1 l s w dw
    and l dth_dd = c dp_dd + q dtheta.
    """
    _, theta, p_dot, theta_dot = x
    f = u[0] if np.ndim(u) else u
    s, c = np.sin(theta), np.cos(theta)
    m1, m2, l, g = params.m1, params.m2, params.l, params.g
    den = m2 + m1 - m1 * c * c
    w2 = theta_dot * theta_dot
    p_dd = (-m1 * l * s * w2 + m1 * g * c * s + f) / den
    th_dd = (f * c - m1 * l * c * s * w2 + (m2 + m1) * g * s) / (l * den)
    xdot = np.array([p_dot, theta_dot, p_dd, th_dd])
    if S is None:
        return xdot

    inv = 1.0 / den
    q = g * c - s * p_dd
    K = np.empty(S.shape[:2] + np.shape(theta))
    K[:2] = S[2:]
    np.multiply((c * q - l * (s * th_dd + c * w2)) * (m1 * inv), S[1], out=K[2])
    K[2] += ((-2.0 * m1 * l) * s * (theta_dot * inv)) * S[3]
    K[2, 4] += inv
    np.multiply(c / l, K[2], out=K[3])
    K[3] += (q / l) * S[1]
    return xdot, K


def pendulum_state_step(params: PendulumParams):
    """The cart-pole's float RK4 kernel: ``step(x, u, h)`` makes one step of length h.

    x is one state as a sequence of four floats and u a sequence of one
    force; the result is a list.  Every entry takes the IEEE operations of
    ``rk4_state_step`` over ``pendulum_rhs`` in the same order (the
    parameter products are the ones ``pendulum_rhs`` forms first), so it
    equals the array form bit for bit wherever ``math.sin``/``math.cos``
    round as NumPy's do.  sin and cos of +-inf are nan, as in NumPy.
    """
    m1, l = params.m1, params.l
    m12 = params.m2 + m1
    nm1l, m1g, m1l, m12g = -m1 * l, m1 * params.g, m1 * l, m12 * params.g
    sin, cos, nan = math.sin, math.cos, math.nan

    def accel(theta, theta_dot, f):
        try:
            s, c = sin(theta), cos(theta)
        except ValueError:  # theta is +-inf
            s = c = nan
        den = m12 - m1 * c * c
        w2 = theta_dot * theta_dot
        return ((nm1l * s * w2 + m1g * c * s + f) / den,
                (f * c - m1l * c * s * w2 + m12g * s) / (l * den))

    def step(x, u, h):
        p, th, v, w = x
        f = float(u[0])
        h2, h6 = 0.5 * h, h / 6.0
        a1, b1 = accel(th, w, f)
        p2, th2, v2, w2 = p + h2 * v, th + h2 * w, v + h2 * a1, w + h2 * b1
        a2, b2 = accel(th2, w2, f)
        p3, th3, v3, w3 = p + h2 * v2, th + h2 * w2, v + h2 * a2, w + h2 * b2
        a3, b3 = accel(th3, w3, f)
        v4, w4 = v + h * a3, w + h * b3
        a4, b4 = accel(th + h * w3, w4, f)
        return [p + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                th + h6 * (w + 2.0 * w2 + 2.0 * w3 + w4),
                v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                w + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)]

    return step


def pendulum_jacobians(x: np.ndarray, u, params: PendulumParams):
    """Analytic (d f/d x, d f/d u) of the cart-pole dynamics; (n, 4, 4)/(n, 4, 1) stacks for columns.

    ``pendulum_rhs``'s tangent at the identity seed [I | 0].
    """
    _, K = pendulum_rhs(x, u, params, np.eye(4, 5).reshape((4, 5) + (1,) * (np.ndim(x) - 1)))
    J = np.moveaxis(K, (0, 1), (-2, -1))
    return J[..., :4], J[..., 4:]


def stage_cost_terms(xs: np.ndarray, us: np.ndarray, cost: QuadraticCost):
    """Gradients (q, r) of the stage cost at node stacks xs (n, nx), us (n, nu).

    The Hessians are Q and R exactly (Gauss-Newton on the quadratic tracking
    cost, no state-input cross term); ``OcpProblem.constants`` holds them.
    """
    return (xs - cost.x_ref) @ cost.Q.T, (us - cost.u_ref) @ cost.R.T


def state_box_rows(x_lo, x_hi, xs: np.ndarray):
    """Affine rows Cx*dx + c <= 0 encoding finite state box bounds at nodes xs (n, nx).

    Upper bound i gives row  e_i*dx + (x_k[i] - hi) <= 0, lower bound i gives
    -e_i*dx + (lo - x_k[i]) <= 0.  Cx is the same at every node; c is
    (n, rows).  Input boxes are simple bounds on the blocked inputs, never rows.
    """
    nx = xs.shape[-1]
    eye = np.eye(nx)
    keep = np.stack([np.isfinite(x_hi), np.isfinite(x_lo)], axis=1).reshape(2 * nx)
    Cx = np.stack([eye, -eye], axis=1).reshape(2 * nx, nx)[keep]
    c = np.stack([xs - x_hi, x_lo - xs], axis=-1).reshape(xs.shape[:-1] + (2 * nx,))[..., keep]
    return Cx, c


# Per-problem constants of the stage data (see ``OcpProblem.constants``).
StageConstants = namedtuple("StageConstants", "Qs Rs QN Cx CxN c0")


@dataclass
class OcpProblem:
    """Discretized optimal-control problem over N shooting intervals.

    rhs/jac are callables (x, u) -> xdot and (x, u) -> (dfdx, dfdu), called
    with one point x (nx,), u (nu,) and with column stacks x (nx, n),
    u (nu, n); for a stack rhs returns (nx, n) and jac (n, nx, nx)/(n, nx, nu)
    stacks.  Constant Jacobians may be returned as 2-D blocks for either call.
    ``tangent(x, u, S)`` is rhs with its directional derivative along a
    stage tangent S (nx, nx+nu) or (nx, nx+nu, n): it returns
    (rhs(x, u), dfdx S + [0 | dfdu]), and is what the shooting step calls,
    once per RK4 stage.  It defaults to ``jacobian_tangent`` over rhs and
    jac; the cart-pole supplies ``pendulum_rhs``'s fused form, which shares
    the stage's subexpressions with f and forms no Jacobian.
    ``state_step(x, u, h)`` makes one RK4 step of one state (x a sequence
    of nx floats, a list or the array a previous step returned; u an (nu,)
    row; it returns nx floats, as a list or an array).
    It defaults to ``rk4_state_step`` over rhs, which passes rhs arrays;
    the cart-pole supplies its own float kernel, which gives the same bits
    faster.  ``intervals`` carries one integrator configuration per
    shooting interval (nonuniform grids use unequal interval lengths;
    ``hs`` holds them as an array); ``weight_scales``
    multiplies the stage cost of each interval, which is how nonuniform
    grids scale their weights by interval length.
    """

    dims: ProblemDims
    rhs: Callable
    jac: Callable
    cost: QuadraticCost
    bounds: StageBounds
    intervals: Sequence[IntegratorConfig]
    weight_scales: np.ndarray = field(default=None)
    state_step: Callable = field(default=None)
    tangent: Callable = field(default=None)
    hs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.tangent is None:
            self.tangent = jacobian_tangent(self.rhs, self.jac)
        if self.state_step is None:
            self.state_step = partial(rk4_state_step, self.rhs)
        self.hs = np.array([cfg.h for cfg in self.intervals], dtype=float)
        if self.weight_scales is None:
            self.weight_scales = np.ones(self.N)
        self.weight_scales = np.asarray(self.weight_scales, dtype=float)
        if len(self.weight_scales) != self.N:
            raise ValueError("need one weight scale per shooting interval")

    @property
    def N(self) -> int:
        return len(self.intervals)

    @cached_property
    def constants(self) -> StageConstants:
        """The stage data's per-problem constants, built once and read-only.

        Qs (N, nx, nx) and Rs (N, nu, nu) are the stage Hessians scaled by
        ``weight_scales``; QN is unscaled.  Every node 1..N carries the same
        state-box rows, ``state_box_rows``'s (nr, nx) block: CxN is that
        block and Cx its (N-1, nr, nx) broadcast view over nodes 1..N-1.
        c0 (nr,) is the rows' constant at x = 0, so node x_k's is
        CxN x_k + c0.
        """
        origin = np.zeros((1, self.dims.nx))
        box, (c0,) = state_box_rows(self.bounds.x_lo, self.bounds.x_hi, origin)
        w3 = self.weight_scales[:, None, None]
        consts = StageConstants(
            Qs=w3 * self.cost.Q, Rs=w3 * self.cost.R, QN=self.cost.QN.copy(),
            Cx=np.broadcast_to(box, (self.N - 1,) + box.shape), CxN=box, c0=c0)
        for a in consts:
            a.flags.writeable = False
        return consts


def make_pendulum_problem(
    params: PendulumParams,
    cost: QuadraticCost,
    bounds: StageBounds,
    Ts: float,
    N: int,
    interval_lengths: Sequence[int] | None = None,
) -> OcpProblem:
    """Cart-pole OCP on a grid of N intervals.

    With ``interval_lengths`` given (nonuniform grid), interval j spans
    interval_lengths[j] * Ts seconds and is integrated with a single RK4
    step, the fixed per-interval effort of a standard shooting
    discretization; stage weights are scaled by the interval length.
    Coarser intervals therefore carry a coarser discretization, which is
    the accuracy trade nonuniform grids make.
    """
    # closures look pendulum_rhs up at call time, so counting it in the module counts these
    rhs = lambda x, u: pendulum_rhs(x, u, params)
    jac = lambda x, u: pendulum_jacobians(x, u, params)
    tangent = lambda x, u, S: pendulum_rhs(x, u, params, S)
    if interval_lengths is None:
        intervals = [IntegratorConfig(h=Ts)] * N  # frozen, so one config serves every interval
        scales = np.ones(N)
    else:
        if sum(interval_lengths) != N:
            raise ValueError("interval lengths must sum to the uniform-grid interval count")
        intervals = [IntegratorConfig(h=float(n) * Ts) for n in interval_lengths]
        scales = np.asarray(interval_lengths, dtype=float)
    return OcpProblem(dims=PENDULUM_DIMS, rhs=rhs, jac=jac, cost=cost, bounds=bounds,
                      intervals=intervals, weight_scales=scales,
                      state_step=pendulum_state_step(params), tangent=tangent)
