import numpy as np
import pytest

from blockmpc.blocking import from_block_lengths, unit_blocks
from blockmpc.harness import SchemeConfig, build_controller
from blockmpc.integrator import IntegrationDivergedError, IntegratorConfig
from blockmpc.model import (
    OcpProblem,
    PendulumParams,
    ProblemDims,
    QuadraticCost,
    StageBounds,
    make_pendulum_problem,
    state_box_rows,
)
from blockmpc.rti import RtiController
from blockmpc.shooting import Trajectory, evaluate, forward_simulate
from oracles import loop_evaluate, numpy_forward_simulate, seeded_pendulum_states


def integrator_problem(Ts=1.0, N=3):
    """Single integrator xdot = u."""
    rhs = lambda x, u: np.atleast_1d(np.asarray(u, dtype=float))
    jac = lambda x, u: (np.zeros((1, 1)), np.eye(1))
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1), QN=np.eye(1),
                         x_ref=np.zeros(1), u_ref=np.zeros(1))
    return OcpProblem(dims=ProblemDims(1, 1), rhs=rhs, jac=jac, cost=cost,
                      bounds=StageBounds.unbounded(1, 1),
                      intervals=[IntegratorConfig(h=Ts) for _ in range(N)])


def pendulum_problem(N=8, Ts=0.025):
    params = PendulumParams()
    cost = QuadraticCost(Q=np.diag([10.0, 10.0, 0.1, 0.1]), R=np.diag([0.01]),
                         QN=np.diag([10.0, 10.0, 0.1, 0.1]),
                         x_ref=np.zeros(4), u_ref=np.zeros(1))
    bounds = StageBounds(x_lo=np.array([-2.0, -np.inf, -np.inf, -np.inf]),
                         x_hi=np.array([2.0, np.inf, np.inf, np.inf]),
                         u_lo=np.array([-20.0]), u_hi=np.array([20.0]))
    return make_pendulum_problem(params, cost, bounds, Ts, N)


def test_forward_simulate_zero_dynamics():
    prob = integrator_problem(N=3)
    bs = from_block_lengths([3])
    traj = forward_simulate(prob, bs, np.array([4.0]), np.zeros((1, 1)))
    assert np.allclose(traj.xs, 4.0)


def test_forward_simulate_hand_example():
    prob = integrator_problem(Ts=1.0, N=3)
    bs = from_block_lengths([2, 1])
    traj = forward_simulate(prob, bs, np.zeros(1), np.array([[1.0], [-1.0]]))
    assert np.allclose(traj.xs.ravel(), [0.0, 1.0, 2.0, 1.0])


def test_pendulum_equilibrium_hold():
    prob = pendulum_problem(N=6)
    bs = from_block_lengths([2, 4])
    x0 = np.array([0.0, np.pi, 0.0, 0.0])
    traj = forward_simulate(prob, bs, x0, np.zeros((2, 1)))
    assert np.allclose(traj.xs, np.tile(x0, (7, 1)), atol=1e-14)


def test_zero_residual_fixed_point():
    prob = pendulum_problem(N=8)
    bs = from_block_lengths([1, 3, 4])
    rng = np.random.default_rng(0)
    x0 = np.array([0.1, 3.0, -0.2, 0.3])
    us = rng.uniform(-5, 5, size=(3, 1))
    traj = forward_simulate(prob, bs, x0, us)
    sd = evaluate(prob, bs, traj, x0)
    assert np.abs(sd.ds).max() < 1e-12
    assert np.abs(sd.dx0).max() < 1e-12


def test_single_integrator_block_sharing_stage_data():
    prob = integrator_problem(Ts=1.0, N=2)
    bs = from_block_lengths([2])
    traj = forward_simulate(prob, bs, np.zeros(1), np.array([[1.0]]))
    sd = evaluate(prob, bs, traj, np.zeros(1))
    assert np.allclose(sd.As, 1.0)
    assert np.allclose(sd.Bs, 1.0)
    assert np.abs(sd.ds).max() < 1e-14
    assert np.allclose(traj.xs.ravel(), [0.0, 1.0, 2.0])


def test_unit_blocks_match_blocked_evaluation_shapes():
    prob = pendulum_problem(N=6)
    x0 = np.array([0.0, 3.0, 0.0, 0.0])
    bs_u = unit_blocks(6)
    bs_b = from_block_lengths([2, 4])
    us_b = np.array([[1.0], [-2.0]])
    us_u = np.array([[1.0], [1.0], [-2.0], [-2.0], [-2.0], [-2.0]])
    sd_u = evaluate(prob, bs_u, forward_simulate(prob, bs_u, x0, us_u), x0)
    sd_b = evaluate(prob, bs_b, forward_simulate(prob, bs_b, x0, us_b), x0)
    # sparsity preservation: same number of dynamic/cost stages either way
    assert sd_u.N == sd_b.N == 6
    assert np.allclose(sd_u.As, sd_b.As)
    assert np.allclose(sd_u.Bs, sd_b.Bs)
    assert np.allclose(sd_u.ds, sd_b.ds)
    # blocked input bounds collapse to M entries
    assert sd_b.du_lo.shape == (2, 1) and sd_u.du_lo.shape == (6, 1)


def test_block_input_sharing_instrumented():
    prob = pendulum_problem(N=6)
    seen = []
    base_tangent = prob.tangent
    prob.tangent = lambda x, u, S: (seen.append(np.array(u, dtype=float)),
                                    base_tangent(x, u, S))[1]
    bs = from_block_lengths([2, 4])
    x0 = np.array([0.0, 3.0, 0.0, 0.0])
    traj = forward_simulate(prob, bs, x0, np.array([[1.5], [-0.5]]))
    seen.clear()
    evaluate(prob, bs, traj, x0)
    # one batched tangent RK4 step: 4 stage calls, each on the input columns of all 6 intervals
    assert len(seen) == 4
    for u_cols in seen:
        assert u_cols.shape == (1, 6)
        assert set(u_cols[0, :2]) == {1.5}
        assert set(u_cols[0, 2:]) == {-0.5}


def test_state_box_rows_at_interior_nodes_only():
    prob = pendulum_problem(N=4)
    bs = unit_blocks(4)
    x0 = np.array([0.5, 3.0, 0.0, 0.0])
    traj = forward_simulate(prob, bs, x0, np.zeros((4, 1)))
    sd = evaluate(prob, bs, traj, x0)
    # none at node 0 (its state is fixed by the embedding), two at nodes 1..4
    assert sd.Cx.shape == (3, 2, 4) and sd.c.shape == (3, 2)
    assert sd.CxN.shape == (2, 4) and sd.cN.shape == (2,)
    # row values reproduce p - hi and lo - p at the linearization point
    assert sd.c[0, 0] == pytest.approx(traj.xs[1][0] - 2.0)
    assert sd.c[0, 1] == pytest.approx(-2.0 - traj.xs[1][0])
    assert sd.cN[0] == pytest.approx(traj.xs[4][0] - 2.0)


def test_weight_scales_applied():
    params = PendulumParams()
    cost = QuadraticCost(Q=np.eye(4), R=np.eye(1), QN=np.eye(4),
                         x_ref=np.zeros(4), u_ref=np.zeros(1))
    prob = make_pendulum_problem(params, cost, StageBounds.unbounded(4, 1),
                                 Ts=0.025, N=4, interval_lengths=[1, 3])
    bs = unit_blocks(2)
    x0 = np.array([0.0, 3.0, 0.0, 0.0])
    traj = forward_simulate(prob, bs, x0, np.zeros((2, 1)))
    sd = evaluate(prob, bs, traj, x0)
    assert np.allclose(sd.Qs[0], np.eye(4))
    assert np.allclose(sd.Qs[1], 3.0 * np.eye(4))
    assert np.allclose(sd.QN, np.eye(4))  # terminal weight unscaled
    # nonuniform interval spans its full length in one step
    assert prob.intervals[1].h == pytest.approx(3 * 0.025)


SIN_COS = ("the float step takes math.sin/math.cos (libm) where the array form takes "
           "np.sin/np.cos; they round differently on this machine")


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_forward_simulate_matches_numpy_loop_bit_for_bit(scheme):
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    if scheme == "B":
        assert len(set(ctrl.problem.hs)) > 1
    rng = np.random.default_rng(12)
    for x0 in seeded_pendulum_states(11, 8):
        us = rng.uniform(-5.0, 5.0, size=(ctrl.bs.M, 1))
        got = forward_simulate(ctrl.problem, ctrl.bs, x0, us).xs
        assert np.array_equal(got, numpy_forward_simulate(ctrl.problem, ctrl.bs, x0, us)), SIN_COS


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_initial_trajectory_has_exactly_zero_shooting_gaps(scheme):
    # forward_simulate steps in floats, evaluate in batched arrays: the same bits
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    rng = np.random.default_rng(13)
    for i, x0 in enumerate(seeded_pendulum_states(14, 8)):
        us0 = None if i % 2 else rng.uniform(-5.0, 5.0, size=(ctrl.bs.M, 1))
        traj = ctrl.initial_state(x0, us0).traj
        ds = evaluate(ctrl.problem, ctrl.bs, traj, x0).ds
        assert np.all(ds == 0.0), f"max |ds| {np.abs(ds).max():.3g}: {SIN_COS}"


# xdot = gain * x on two states, written with array operations only: handed a
# list of floats, -x and 2.0 * x raise TypeError and x + x concatenates
ARRAY_ONLY_RHS = {"negate": (lambda x, u: -x, -1.0),
                  "scale": (lambda x, u: 2.0 * x, 2.0),
                  "self_sum": (lambda x, u: x + x, 2.0)}


@pytest.mark.parametrize("name", sorted(ARRAY_ONLY_RHS))
def test_generic_state_step_hands_rhs_arrays(name):
    rhs, gain = ARRAY_ONLY_RHS[name]
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1), QN=np.eye(2),
                         x_ref=np.zeros(2), u_ref=np.zeros(1))
    prob = OcpProblem(dims=ProblemDims(2, 1), rhs=rhs,
                      jac=lambda x, u: (gain * np.eye(2), np.zeros((2, 1))), cost=cost,
                      bounds=StageBounds.unbounded(2, 1),
                      intervals=[IntegratorConfig(h=0.05 * (1 + k % 3)) for k in range(8)])
    bs = from_block_lengths([3, 5])
    x0, us = np.array([0.5, 1.0]), np.array([[0.3], [-0.2]])
    traj = RtiController(prob, bs).initial_state(x0, us).traj
    assert np.array_equal(traj.xs, numpy_forward_simulate(prob, bs, x0, us))
    ds = evaluate(prob, bs, traj, x0).ds
    assert np.all(ds == 0.0), f"max |ds| {np.abs(ds).max():.3g}"


def test_diverging_start_raises_at_the_first_non_finite_node_of_the_numpy_loop():
    # theta_dot = 1e160 squares to inf; the float kernel must stop where the arrays do
    ctrl = build_controller(SchemeConfig(scheme="C").validate())
    x0 = np.array([0.0, 3.14, 0.0, 1e160])
    us = np.zeros((ctrl.bs.M, 1))
    with np.errstate(all="ignore"):
        xs = numpy_forward_simulate(ctrl.problem, ctrl.bs, x0, us)
    first_bad = int(np.argmin(np.isfinite(xs[1:]).all(axis=1)))
    assert not np.isfinite(xs[first_bad + 1]).all()
    with pytest.raises(IntegrationDivergedError) as info:
        forward_simulate(ctrl.problem, ctrl.bs, x0, us)
    assert info.value.node == first_bad


def test_forward_simulate_rejects_inputs_of_the_wrong_width():
    prob = pendulum_problem(N=4)
    with pytest.raises(ValueError, match=r"4 blocked inputs of width 1, got shape \(4, 2\)"):
        forward_simulate(prob, unit_blocks(4), np.zeros(4), np.zeros((4, 2)))


@pytest.mark.parametrize("N", [6, 3])
def test_grid_and_blocks_of_another_N_rejected(N):
    # used to return a 5-node trajectory (N = 6) or raise a bare IndexError (N = 3)
    prob = pendulum_problem(N=N)
    bs = unit_blocks(4)
    with pytest.raises(ValueError, match="disagree on N"):
        forward_simulate(prob, bs, np.zeros(4), np.zeros((4, 1)))
    traj = forward_simulate(pendulum_problem(N=4), bs, np.zeros(4), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="disagree on N"):
        evaluate(prob, bs, traj, np.zeros(4))


def test_dimension_mismatch_rejected():
    prob = pendulum_problem(N=4)
    bs = unit_blocks(4)
    bad = Trajectory(xs=np.zeros((4, 4)), us=np.zeros((4, 1)))  # needs N+1 states
    with pytest.raises(ValueError):
        evaluate(prob, bs, bad, np.zeros(4))
    with pytest.raises(ValueError):
        forward_simulate(prob, bs, np.zeros(4), np.zeros((3, 1)))


def _assert_stage_data_match(sd, ref):
    for name, a in vars(sd).items():
        b = getattr(ref, name)
        assert np.shape(a) == np.shape(b), name
        fin = np.isfinite(b)  # du bounds of an unbounded input are infinite
        assert np.array_equal(a[~fin], b[~fin]), name
        if fin.any():
            err = np.abs(a[fin] - b[fin]).max()
            assert err <= 1e-14 * max(1e-300, np.abs(b[fin]).max()), name


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_batched_evaluate_matches_interval_loop(scheme):
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.2, -0.1])
    traj = ctrl.initial_state(x0).traj
    rng = np.random.default_rng(4)
    traj = Trajectory(xs=traj.xs + 0.05 * rng.standard_normal(traj.xs.shape),
                      us=traj.us + rng.standard_normal(traj.us.shape))
    if scheme == "B":
        assert len(set(ctrl.problem.hs)) > 1 and len(set(ctrl.problem.weight_scales)) > 1
    x0_measured = x0 + 0.01
    _assert_stage_data_match(evaluate(ctrl.problem, ctrl.bs, traj, x0_measured),
                             loop_evaluate(ctrl.problem, ctrl.bs, traj, x0_measured))


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_evaluate_rows_are_state_boxes_at_nodes_1_to_N(scheme):
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.2, -0.1])
    sd = evaluate(ctrl.problem, ctrl.bs, ctrl.initial_state(x0).traj, x0 + 0.01)
    N, nx, bounds = ctrl.bs.N, ctrl.problem.dims.nx, ctrl.problem.bounds
    box = [sign * np.eye(nx)[i] for i in range(nx)
           for sign, b in ((1.0, bounds.x_hi[i]), (-1.0, bounds.x_lo[i])) if np.isfinite(b)]
    assert len(box) > 0 and sd.c.shape == (N - 1, len(box)) and sd.cN.shape == (len(box),)
    assert sd.Cx.shape == (N - 1, len(box), nx)
    for Cx in list(sd.Cx) + [sd.CxN]:
        assert np.array_equal(Cx, box)


BOUND_SETS = {  # (x_lo, x_hi) of the default config, then zero, one-sided and infinite parts
    "default": (SchemeConfig.x_lo, SchemeConfig.x_hi),
    "zero": ((0.0, -1.0, -np.inf, 0.0), (0.0, np.inf, 0.0, 0.0)),
    "one_sided": ((-np.inf, -3.0, -np.inf, -np.inf), (1.5, np.inf, 4.0, np.inf)),
    "none": ((-np.inf,) * 4, (np.inf,) * 4),
}


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
@pytest.mark.parametrize("bounds", sorted(BOUND_SETS))
def test_evaluate_row_constants_are_state_box_rows_byte_for_byte(scheme, bounds):
    x_lo, x_hi = BOUND_SETS[bounds]
    ctrl = build_controller(SchemeConfig(scheme=scheme, x_lo=x_lo, x_hi=x_hi).validate())
    rng = np.random.default_rng(22)
    xs = rng.uniform(-3.0, 3.0, size=(ctrl.bs.N + 1, 4))
    for nodes, bound in ((xs[1::3], np.array(x_hi)), (xs[2::3], np.array(x_lo))):
        nodes[:] = np.where(np.isfinite(bound), bound, nodes)  # some nodes sit on a bound
    traj = Trajectory(xs=xs, us=rng.uniform(-5.0, 5.0, size=(ctrl.bs.M, 1)))
    sd = evaluate(ctrl.problem, ctrl.bs, traj, xs[0])
    _, c = state_box_rows(np.array(x_lo), np.array(x_hi), xs[1:])
    assert sd.c.shape == c[:-1].shape and sd.c.tobytes() == c[:-1].tobytes()
    assert sd.cN.shape == c[-1].shape and sd.cN.tobytes() == c[-1].tobytes()


def test_batched_evaluate_matches_interval_loop_single_integrator():
    prob = integrator_problem(Ts=0.5, N=5)
    bs = from_block_lengths([2, 3])
    traj = Trajectory(xs=np.array([[0.0], [0.3], [1.1], [0.7], [0.2], [-0.4]]),
                      us=np.array([[1.0], [-2.0]]))
    _assert_stage_data_match(evaluate(prob, bs, traj, np.array([0.1])),
                             loop_evaluate(prob, bs, traj, np.array([0.1])))


def test_divergence_reports_interval():
    # xdot = u x^2 blows up in the one interval whose input is huge
    rhs = lambda x, u: u * x * x
    jac = lambda x, u: (np.reshape(2.0 * u * x, np.shape(x)[1:] + (1, 1)),
                        np.reshape(x * x, np.shape(x)[1:] + (1, 1)))
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1), QN=np.eye(1),
                         x_ref=np.zeros(1), u_ref=np.zeros(1))
    prob = OcpProblem(dims=ProblemDims(1, 1), rhs=rhs, jac=jac, cost=cost,
                      bounds=StageBounds.unbounded(1, 1),
                      intervals=[IntegratorConfig(h=0.1) for _ in range(5)])
    bs = unit_blocks(5)
    us = np.array([[0.0], [0.5], [0.0], [1e308], [0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError) as info:
            forward_simulate(prob, bs, np.ones(1), us)
        assert info.value.node == 3
        traj = Trajectory(xs=np.ones((6, 1)), us=us)
        with pytest.raises(IntegrationDivergedError) as info:
            evaluate(prob, bs, traj, np.ones(1))
        assert info.value.node == 3


def _shared_constants(sd):
    return {"Qs": sd.Qs, "Rs": sd.Rs, "QN": sd.QN, "Cx": sd.Cx, "CxN": sd.CxN}


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_evaluate_constants_are_shared_read_only_and_survive_a_closed_loop(scheme):
    from blockmpc.harness import _plant_step
    from blockmpc.model import pendulum_state_step

    cfg = SchemeConfig(scheme=scheme).validate()
    ctrl = build_controller(cfg)
    x = np.array(cfg.x0)
    state = ctrl.initial_state(x)
    first = _shared_constants(evaluate(ctrl.problem, ctrl.bs, state.traj, x))
    again = _shared_constants(evaluate(ctrl.problem, ctrl.bs, state.traj, x + 0.01))
    assert all(again[name] is a for name, a in first.items())  # built once per problem
    # the stage rows are a view of the one box block, not a copy per node
    assert first["Cx"].strides[0] == 0 and np.shares_memory(first["Cx"], first["CxN"])
    saved = {name: a.tobytes() for name, a in first.items()}

    plant = pendulum_state_step(PendulumParams())
    for _ in range(20):
        u, state = ctrl.step(state, x)
        x = _plant_step(plant, x, u, cfg.Ts, cfg.plant_substeps)
    sd = evaluate(ctrl.problem, ctrl.bs, state.traj, x)
    for name, a in _shared_constants(sd).items():
        assert a is first[name] and a.tobytes() == saved[name], name
        with pytest.raises(ValueError, match="read-only"):  # a write cannot reach the next sample
            a[(0,) * a.ndim] = 1
