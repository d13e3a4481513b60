import math

import numpy as np
import pytest

from blockmpc.integrator import (IntegrationDivergedError, IntegratorConfig, integrate_interval,
                                  jacobian_tangent, rk4_step)
from blockmpc.harness import SchemeConfig, build_controller
from blockmpc.model import (OcpProblem, PendulumParams, ProblemDims, QuadraticCost, StageBounds,
                            pendulum_jacobians, pendulum_rhs)
from oracles import (dense_rk4_step, pendulum_jacobians_quotient_rule, rk4_linear_closed_form,
                     seeded_pendulum_states)

PARAMS = PendulumParams()
RHS = lambda x, u: pendulum_rhs(x, u, PARAMS)
JAC = lambda x, u: pendulum_jacobians(x, u, PARAMS)
TANGENT = lambda x, u, S: pendulum_rhs(x, u, PARAMS, S)  # the fused stage kernel


def test_frozen_dynamics():
    rhs = lambda x, u: np.zeros_like(x)
    jac = lambda x, u: (np.zeros((2, 2)), np.zeros((2, 1)))
    x = np.array([1.0, -2.0])
    xn, A, B = rk4_step(rhs, jac, x, np.zeros(1), 0.1)
    assert np.allclose(xn, x)
    assert np.allclose(A, np.eye(2))
    assert np.allclose(B, 0)


def test_scalar_decay_truncated_taylor():
    rhs = lambda x, u: -x
    jac = lambda x, u: (np.array([[-1.0]]), np.array([[0.0]]))
    xn, A, _ = rk4_step(rhs, jac, np.array([1.0]), np.zeros(1), 0.1)
    expected = sum((-0.1) ** k / math.factorial(k) for k in range(5))
    assert xn[0] == pytest.approx(expected, abs=1e-15)
    assert xn[0] == pytest.approx(0.9048375, abs=1e-9)
    assert A[0, 0] == pytest.approx(expected, abs=1e-15)


def test_pure_input_integrator():
    rhs = lambda x, u: np.atleast_1d(u)
    jac = lambda x, u: (np.zeros((1, 1)), np.eye(1))
    _, A, B = rk4_step(rhs, jac, np.zeros(1), np.array([2.0]), 0.1)
    assert A[0, 0] == pytest.approx(1.0)
    assert B[0, 0] == pytest.approx(0.1)


def test_linear_system_sensitivities_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(5):
        nx, nu = 3, 2
        Ac = rng.standard_normal((nx, nx)) * 0.7
        Bc = rng.standard_normal((nx, nu))
        rhs = lambda x, u: Ac @ x + Bc @ u
        jac = lambda x, u: (Ac, Bc)
        h = 0.13
        x = rng.standard_normal(nx)
        u = rng.standard_normal(nu)
        xn, A, B = rk4_step(rhs, jac, x, u, h)
        Ad, Bd = rk4_linear_closed_form(Ac, Bc, h)
        assert np.abs(A - Ad).max() < 1e-12
        assert np.abs(B - Bd).max() < 1e-12
        assert np.abs(xn - (Ad @ x + Bd @ u)).max() < 1e-12


def test_interval_single_substep_equals_step():
    x = np.array([0.1, 3.0, -0.2, 0.4])
    u = np.array([1.5])
    assert all(np.array_equal(a, b) for a, b in
               zip(integrate_interval(0.05, jacobian_tangent(RHS, JAC), x, u),
                   rk4_step(RHS, JAC, x, u, 0.05)))


def _rel_err(a, b):
    return np.abs(a - b).max() / max(1e-300, np.abs(b).max())


def test_batched_step_columns_match_pointwise_steps():
    rng = np.random.default_rng(12)
    n = 9
    xs = rng.uniform(-5, 5, size=(4, n))
    us = rng.uniform(-20, 20, size=(1, n))
    hs = rng.choice([0.025, 0.05, 0.1, 0.375], size=n)
    x_next, A, B = rk4_step(RHS, JAC, xs, us, hs)
    assert x_next.shape == (4, n) and A.shape == (n, 4, 4) and B.shape == (n, 4, 1)
    for k in range(n):
        xk, Ak, Bk = rk4_step(RHS, JAC, xs[:, k], us[:, k], hs[k])
        assert _rel_err(x_next[:, k], xk) <= 1e-14
        assert _rel_err(A[k], Ak) <= 1e-14
        assert _rel_err(B[k], Bk) <= 1e-14


def test_batched_step_accepts_constant_jacobians():
    rng = np.random.default_rng(13)
    nx, nu, n = 3, 2, 4
    Ac = rng.standard_normal((nx, nx)) * 0.7
    Bc = rng.standard_normal((nx, nu))
    hs = np.array([0.05, 0.13, 0.2, 0.13])
    xs = rng.standard_normal((nx, n))
    us = rng.standard_normal((nu, n))
    x_next, A, B = rk4_step(lambda x, u: Ac @ x + Bc @ u, lambda x, u: (Ac, Bc), xs, us, hs)
    assert A.shape == (n, nx, nx) and B.shape == (n, nx, nu)
    for k in range(n):
        Ad, Bd = rk4_linear_closed_form(Ac, Bc, hs[k])
        assert np.abs(A[k] - Ad).max() < 1e-12
        assert np.abs(B[k] - Bd).max() < 1e-12
        assert np.abs(x_next[:, k] - (Ad @ xs[:, k] + Bd @ us[:, k])).max() < 1e-12


def assert_matches_dense_oracle(got, ref):
    """x_next bit for bit, A and B to 1e-13 relative."""
    assert np.array_equal(got[0], ref[0])
    assert _rel_err(got[1], ref[1]) <= 1e-13 and _rel_err(got[2], ref[2]) <= 1e-13


QR_JAC = lambda x, u: pendulum_jacobians_quotient_rule(x, u, PARAMS)


@pytest.mark.parametrize("scheme", ["A", "B"])
def test_cartpole_tangent_matches_dense_oracle_on_columns(scheme):
    hs = build_controller(SchemeConfig(scheme=scheme).validate()).problem.hs  # B's are unequal
    n = len(hs)
    xs = seeded_pendulum_states(21, n).T
    us = np.random.default_rng(22).uniform(-20, 20, size=(1, n))
    got = integrate_interval(hs, TANGENT, xs, us)
    assert got[1].shape == (n, 4, 4) and got[2].shape == (n, 4, 1)
    assert_matches_dense_oracle(got, dense_rk4_step(RHS, QR_JAC, xs, us, hs))


def test_cartpole_tangent_matches_dense_oracle_on_one_state():
    x, u = np.array([0.1, 3.0, -0.2, 0.4]), np.array([1.5])
    got = integrate_interval(0.025, TANGENT, x, u)
    assert got[1].shape == (4, 4) and got[2].shape == (4, 1)
    assert_matches_dense_oracle(got, dense_rk4_step(RHS, QR_JAC, x, u, 0.025))


def _generic_rhs(x, u):
    return np.array([x[1], -np.sin(x[0]) - 0.1 * x[1] + u[0], x[0] * x[2] + u[1] * x[1]])


def _generic_jac(x, u):
    """(3, 3)/(3, 2) blocks for one point, (n, 3, 3)/(n, 3, 2) stacks for columns."""
    z, o = np.zeros_like(x[0]), np.ones_like(x[0])
    Jx = np.array([[z, o, z], [-np.cos(x[0]), -0.1 * o, z], [x[2], u[1] * o, x[0]]])
    Ju = np.array([[z, z], [o, z], [z, x[1]]])
    return np.moveaxis(Jx, (0, 1), (-2, -1)), np.moveaxis(Ju, (0, 1), (-2, -1))


def test_generic_tangent_of_rhs_jac_problem_matches_dense_oracle():
    n = 7
    cost = QuadraticCost(Q=np.eye(3), R=np.eye(2), QN=np.eye(3), x_ref=np.zeros(3),
                         u_ref=np.zeros(2))
    prob = OcpProblem(dims=ProblemDims(nx=3, nu=2), rhs=_generic_rhs, jac=_generic_jac,
                      cost=cost, bounds=StageBounds.unbounded(3, 2),
                      intervals=[IntegratorConfig(h=h) for h in np.linspace(0.05, 0.3, n)])
    rng = np.random.default_rng(23)
    xs, us = rng.uniform(-2, 2, size=(3, n)), rng.uniform(-2, 2, size=(2, n))
    assert_matches_dense_oracle(integrate_interval(prob.hs, prob.tangent, xs, us),
                                dense_rk4_step(_generic_rhs, _generic_jac, xs, us, prob.hs))
    x, u = xs[:, 0], us[:, 0]  # one point: the Jacobians are 2-D blocks
    assert_matches_dense_oracle(rk4_step(_generic_rhs, _generic_jac, x, u, 0.05),
                                dense_rk4_step(_generic_rhs, _generic_jac, x, u, 0.05))


def test_interval_sensitivities_match_finite_differences():
    h = 0.025
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=4)
        u = rng.uniform(-10, 10, size=1)
        _, A, B = integrate_interval(h, TANGENT, x, u)
        eps = 1e-6
        A_fd = np.zeros((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            xp, _, _ = integrate_interval(h, TANGENT, x + e, u)
            xm, _, _ = integrate_interval(h, TANGENT, x - e, u)
            A_fd[:, i] = (xp - xm) / (2 * eps)
        xp, _, _ = integrate_interval(h, TANGENT, x, u + eps)
        xm, _, _ = integrate_interval(h, TANGENT, x, u - eps)
        B_fd = ((xp - xm) / (2 * eps)).reshape(4, 1)
        assert np.abs(A - A_fd).max() / max(1.0, np.abs(A).max()) < 1e-6
        assert np.abs(B - B_fd).max() / max(1.0, np.abs(B).max()) < 1e-6


def test_step_halving_consistency():
    # one nonlinear step of 2h vs two chained steps of h: O(h^4) agreement,
    # and halving h again shrinks the disagreement by >= 15x
    x = np.array([0.2, 2.5, 0.1, -0.3])
    u = np.array([3.0])

    def gap(h):
        x1, A1, B1 = rk4_step(RHS, JAC, x, u, 2 * h)
        xm, Am, Bm = rk4_step(RHS, JAC, x, u, h)
        x2, As, Bs = rk4_step(RHS, JAC, xm, u, h)
        A2, B2 = As @ Am, As @ Bm + Bs
        return max(np.abs(x1 - x2).max(), np.abs(A1 - A2).max(), np.abs(B1 - B2).max())

    g1, g2 = gap(0.04), gap(0.02)
    assert g2 < g1 / 15.0


def test_divergence_raises():
    rhs = lambda x, u: x * x * 1e200
    jac = lambda x, u: (np.array([[2e200 * x[0]]]), np.array([[0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError):
            rk4_step(rhs, jac, np.array([1e200]), np.zeros(1), 1.0)


def test_batched_divergence_reports_first_failing_column():
    rhs = lambda x, u: x * x
    jac = lambda x, u: (2.0 * x.T[:, :, None], np.zeros((x.shape[1], 1, 1)))
    xs = np.array([[1.0, 2.0, 1e200, 3.0, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError) as info:
            rk4_step(rhs, jac, xs, np.zeros((1, 5)), np.full(5, 0.01))
    assert info.value.node == 2


def _column_of(value, j, n=5, nx=2):
    """(nx, n) zeros with ``value`` in column j."""
    a = np.zeros((nx, n))
    a[:, j] = value
    return a


# A bad value in one column of a batch that reaches only x_next (the rhs is
# NaN there), only A (a huge finite d f/d x overflows A; with d f/d u = 0 the
# B products stay 0) or only B (a huge d f/d u with d f/d x = 0).
ONE_BAD_OUTPUT = {
    "x_next": (lambda x, u: _column_of(np.nan, 3),
               lambda x, u: (np.zeros((2, 2)), np.zeros((2, 1)))),
    "A": (lambda x, u: np.zeros_like(x),
          lambda x, u: (_column_of(1e308, 3).T[:, :, None] * np.ones(2), np.zeros((5, 2, 1)))),
    "B": (lambda x, u: np.zeros_like(x),
          lambda x, u: (np.zeros((2, 2)), _column_of(1e308, 3).T[:, :, None])),
}


@pytest.mark.parametrize("where", ONE_BAD_OUTPUT)
def test_batched_divergence_in_one_output_reports_its_column(where):
    rhs, jac = ONE_BAD_OUTPUT[where]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError) as info:
            rk4_step(rhs, jac, np.ones((2, 5)), np.zeros((1, 5)), np.full(5, 0.01))
    assert info.value.node == 3


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_batched_step_with_overflowing_sum_but_finite_entries_passes(sign):
    # the quick check sums x_next, A and B; a sum that overflows on finite
    # entries must fall through to the entry-wise scan, which finds none
    rhs = lambda x, u: np.zeros_like(x)
    jac = lambda x, u: (np.zeros((2, 2)), np.zeros((2, 1)))
    xs = np.full((2, 6), sign * 1.7e308)
    with np.errstate(over="ignore"):
        x_next, A, B = rk4_step(rhs, jac, xs, np.zeros((1, 6)), np.full(6, 0.01))
        assert not math.isfinite(x_next.sum() + A.sum() + B.sum())
    assert np.array_equal(x_next, xs)
    assert np.array_equal(A, np.broadcast_to(np.eye(2), (6, 2, 2))) and not B.any()


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=-0.1)
