import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmpc.harness import SchemeConfig
from blockmpc.model import (
    PendulumParams,
    ProblemDims,
    QuadraticCost,
    StageBounds,
    pendulum_jacobians,
    pendulum_rhs,
    pendulum_state_step,
    stage_cost_terms,
    state_box_rows,
)
from oracles import (
    fd_input_jacobian,
    fd_state_jacobian,
    numpy_rk4_state_step,
    pendulum_jacobians_quotient_rule,
    seeded_pendulum_states,
)

PARAMS = PendulumParams(m1=0.1, m2=1.0, l=0.8, g=9.81)


def test_upright_equilibrium():
    assert np.allclose(pendulum_rhs(np.zeros(4), 0.0, PARAMS), np.zeros(4))


def test_downward_equilibrium():
    # sin(pi) is ~1.2e-16 in floats, so the residual is bounded by ~g*eps
    x = np.array([0.0, np.pi, 0.0, 0.0])
    assert np.allclose(pendulum_rhs(x, 0.0, PARAMS), np.zeros(4), atol=1e-14)


def test_horizontal_pole_acceleration():
    # at theta = pi/2 the angular acceleration reduces to g/l
    x = np.array([0.0, np.pi / 2, 0.0, 0.0])
    f = pendulum_rhs(x, 0.0, PARAMS)
    assert abs(f[0]) < 1e-15 and abs(f[1]) < 1e-15
    assert abs(f[2]) < 1e-15
    assert f[3] == pytest.approx(PARAMS.g / PARAMS.l, abs=1e-12)
    assert f[3] == pytest.approx(12.2625, abs=1e-10)


def test_input_jacobian_velocity_rows_zero():
    A, B = pendulum_jacobians(np.array([0.0, np.pi, 0.0, 0.0]), 0.0, PARAMS)
    assert B[0, 0] == 0.0 and B[1, 0] == 0.0


def test_input_jacobian_theta_row_at_horizontal():
    _, B = pendulum_jacobians(np.array([0.0, np.pi / 2, 0.0, 0.0]), 0.0, PARAMS)
    assert B[3, 0] == pytest.approx(0.0, abs=1e-15)


def test_pointwise_call_equals_batched_column():
    # squares are products, so one state and a column stack round alike
    # (numpy's scalar ** 2 goes through pow, which misrounds e.g. 2.0153494736286257)
    rng = np.random.default_rng(2)
    X = rng.uniform(-5, 5, size=(4, 200))
    X[3, :20] = 2.0153494736286257
    X[1, :20] = np.linspace(0.0, 6.0, 20)
    U = rng.uniform(-20, 20, size=(1, 200))
    F = pendulum_rhs(X, U, PARAMS)
    A, B = pendulum_jacobians(X, U, PARAMS)
    for i in range(X.shape[1]):
        assert np.array_equal(pendulum_rhs(X[:, i], U[:, i], PARAMS), F[:, i])
        Ai, Bi = pendulum_jacobians(X[:, i], U[:, i], PARAMS)
        assert np.array_equal(Ai, A[i]) and np.array_equal(Bi, B[i])


def test_state_step_kernel_matches_numpy_rk4_bit_for_bit():
    # every step length in use: the plant's sub-step and each grid interval n*Ts
    cfg = SchemeConfig()
    hs = [cfg.Ts / cfg.plant_substeps] + [float(n) * cfg.Ts for n in sorted(set(cfg.grid_lengths))]
    step = pendulum_state_step(PARAMS)
    rhs = lambda x, u: pendulum_rhs(x, u, PARAMS)
    rng = np.random.default_rng(31)
    for x in seeded_pendulum_states(32, 60):
        u = rng.uniform(-20.0, 20.0, size=1)
        for h in hs:
            got = step(x.tolist(), u, h)
            assert type(got) is list and all(type(v) is float for v in got)
            assert np.array_equal(got, numpy_rk4_state_step(rhs, x, u, h)), (x, u, h)


def test_state_step_kernel_gives_nan_for_infinite_angle():
    # math.sin(inf) raises ValueError; the kernel gives nan there, as np.sin does
    step = pendulum_state_step(PARAMS)
    rhs = lambda x, u: pendulum_rhs(x, u, PARAMS)
    x = np.array([0.0, np.inf, 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        want = numpy_rk4_state_step(rhs, x, np.zeros(1), 0.025)
    got = step(x.tolist(), [0.0], 0.025)
    assert np.array_equal(got, want, equal_nan=True) and np.isnan(got).all()


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(1)
    f = lambda x, u: pendulum_rhs(x, u, PARAMS)
    for _ in range(100):
        x = rng.uniform(-5, 5, size=4)
        u = rng.uniform(-20, 20)
        A, B = pendulum_jacobians(x, u, PARAMS)
        A_fd = fd_state_jacobian(f, x, u)
        B_fd = fd_input_jacobian(f, x, np.array([u]))
        assert np.abs(A - A_fd).max() < 1e-6 * max(1.0, np.abs(A).max())
        assert np.abs(B - B_fd).max() < 1e-6 * max(1.0, np.abs(B).max())


@settings(max_examples=100, deadline=None)
@given(p=st.floats(-5, 5), th=st.floats(-10, 10), pd=st.floats(-5, 5),
       thd=st.floats(-5, 5), u=st.floats(-20, 20))
def test_rhs_periodic_in_theta(p, th, pd, thd, u):
    x = np.array([p, th, pd, thd])
    shifted = x + np.array([0.0, 2 * np.pi, 0.0, 0.0])
    assert np.allclose(pendulum_rhs(x, u, PARAMS), pendulum_rhs(shifted, u, PARAMS),
                       atol=1e-12)


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        PendulumParams(m1=-0.1)
    with pytest.raises(ValueError):
        PendulumParams(l=0.0)


def test_dims_validation():
    with pytest.raises(ValueError):
        ProblemDims(nx=0, nu=1)
    d = ProblemDims(nx=4, nu=1)
    assert d.nx == 4


def _cost():
    return QuadraticCost(Q=np.diag([10.0, 10.0, 0.1, 0.1]), R=np.diag([0.01]),
                         QN=np.diag([10.0, 10.0, 0.1, 0.1]),
                         x_ref=np.zeros(4), u_ref=np.zeros(1))


def test_stage_cost_zero_at_reference():
    cost = _cost()
    q, r = stage_cost_terms(np.zeros((3, 4)), np.zeros((3, 1)), cost)
    assert q.shape == (3, 4) and r.shape == (3, 1)
    assert np.allclose(q, 0) and np.allclose(r, 0)


def test_stage_cost_identity_weight():
    cost = QuadraticCost(Q=np.eye(4), R=np.eye(1), QN=np.eye(4),
                         x_ref=np.zeros(4), u_ref=np.zeros(1))
    xs = np.array([[1.0, 0, 0, 0], [0, -2.0, 0, 0]])
    q, _ = stage_cost_terms(xs, np.zeros((2, 1)), cost)
    assert np.allclose(q, xs)


def test_stage_cost_gradient_matches_numeric():
    cost = _cost()
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((5, 4))
    us = rng.standard_normal((5, 1))
    q, r = stage_cost_terms(xs, us, cost)
    # numeric gradient of 0.5||x - xref||_Q^2 + 0.5||u - uref||_R^2, node by node
    eps = 1e-7

    def J(xv, uv):
        return 0.5 * (xv @ cost.Q @ xv) + 0.5 * (uv @ cost.R @ uv)

    for k in range(5):
        x, u = xs[k], us[k]
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            num = (J(x + e, u) - J(x - e, u)) / (2 * eps)
            assert num == pytest.approx(q[k, i], rel=1e-6, abs=1e-8)
        num = (J(x, u + eps) - J(x, u - eps)) / (2 * eps)
        assert num == pytest.approx(r[k, 0], rel=1e-6, abs=1e-8)


def test_cost_requires_spd_R():
    with pytest.raises(np.linalg.LinAlgError):
        QuadraticCost(Q=np.eye(2), R=np.array([[0.0]]), QN=np.eye(2),
                      x_ref=np.zeros(2), u_ref=np.zeros(1))


def test_cost_symmetry_check_accepts_rounding_and_rejects_asymmetry():
    def cost(Q):
        return QuadraticCost(Q=Q, R=np.eye(1), QN=np.eye(2), x_ref=np.zeros(2), u_ref=np.zeros(1))

    assert cost(np.array([[2.0, 0.3], [0.3, 1.0]])).Q[0, 1] == 0.3
    assert cost(np.array([[2.0, 0.0], [1e-13, 1.0]])).Q[1, 0] == 1e-13  # within atol 1e-12
    for Q in (np.array([[2.0, 0.0], [1e-6, 1.0]]), np.array([[2.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ValueError, match="Q must be symmetric"):
            cost(Q)


def test_cost_rejects_per_stage_references():
    Q, R = np.eye(4), np.eye(1)
    with pytest.raises(ValueError):
        QuadraticCost(Q=Q, R=R, QN=Q, x_ref=np.zeros((3, 4)), u_ref=np.zeros(1))
    with pytest.raises(ValueError):
        QuadraticCost(Q=Q, R=R, QN=Q, x_ref=np.zeros(4), u_ref=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        QuadraticCost(Q=Q, R=R, QN=Q, x_ref=np.zeros(3), u_ref=np.zeros(1))


def test_box_rows_encode_current_point():
    x_lo = np.array([-2.0, -np.inf])
    x_hi = np.array([2.0, np.inf])
    xs = np.array([[0.5, 3.0], [-1.5, 0.0]])
    Cx, c = state_box_rows(x_lo, x_hi, xs)
    # one upper and one lower row for the bounded component only, per node
    assert Cx.shape == (2, 2) and c.shape == (2, 2)
    assert np.array_equal(Cx, [[1.0, 0.0], [-1.0, 0.0]])
    assert c[0] == pytest.approx([0.5 - 2.0, -2.0 - 0.5])
    assert c[1] == pytest.approx([-1.5 - 2.0, -2.0 + 1.5])


def test_box_rows_order_upper_before_lower_per_component():
    x_lo = np.array([-1.0, -np.inf, -3.0])
    x_hi = np.array([1.0, 2.0, np.inf])
    Cx, c = state_box_rows(x_lo, x_hi, np.zeros((1, 3)))
    assert np.array_equal(Cx, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert np.array_equal(c, [[-1.0, -1.0, -2.0, -3.0]])
    Cx, c = state_box_rows(-np.inf * np.ones(3), np.inf * np.ones(3), np.zeros((4, 3)))
    assert Cx.shape == (0, 3) and c.shape == (4, 0)


@pytest.mark.parametrize("params", [PARAMS, PendulumParams(m1=2.0, m2=0.5, l=0.3, g=9.81)])
def test_jacobians_match_quotient_rule_to_rounding(params):
    # the finite-difference check resolves about 1e-6; this one the rewritten expressions
    rng = np.random.default_rng(21)
    n = 400
    theta = np.concatenate([rng.uniform(-np.pi, np.pi, n),
                            [np.pi / 2, -np.pi / 2, 0.0, np.pi, -np.pi]])
    xs = np.stack([rng.uniform(-2, 2, len(theta)), theta,
                   rng.uniform(-5, 5, len(theta)), rng.uniform(-20, 20, len(theta))])
    us = rng.uniform(-20, 20, (1, len(theta)))
    A, B = pendulum_jacobians(xs, us, params)
    A_ref, B_ref = pendulum_jacobians_quotient_rule(xs, us, params)
    for got, want in ((A, A_ref), (B, B_ref)):
        scale = np.abs(want).max(axis=(1, 2))  # per node
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale)
    for k in (0, n, n + 3):  # a single point agrees with its column
        A_k, B_k = pendulum_jacobians(xs[:, k], us[:, k], params)
        assert np.array_equal(A_k, A[k]) and np.array_equal(B_k, B[k])


def test_dynamics_broadcast_over_columns():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-5, 5, size=(4, 7))
    us = rng.uniform(-20, 20, size=(1, 7))
    f = pendulum_rhs(xs, us, PARAMS)
    A, B = pendulum_jacobians(xs, us, PARAMS)
    assert f.shape == (4, 7) and A.shape == (7, 4, 4) and B.shape == (7, 4, 1)
    close = lambda a, b: np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())
    for k in range(7):
        assert close(f[:, k], pendulum_rhs(xs[:, k], us[:, k], PARAMS))
        Ak, Bk = pendulum_jacobians(xs[:, k], us[:, k], PARAMS)
        assert close(A[k], Ak) and close(B[k], Bk)


def test_bounds_validation():
    with pytest.raises(ValueError):
        StageBounds(x_lo=np.array([1.0]), x_hi=np.array([0.0]),
                    u_lo=np.zeros(1), u_hi=np.ones(1))
