import dataclasses

import numpy as np
import pytest

from blockmpc import condensing
from blockmpc.blocking import from_block_lengths, unit_blocks
from blockmpc.condensing import FlopCounter, condense, expand, naive_condense
from blockmpc.harness import (SchemeConfig, _plant_step, build_controller, run_closed_loop,
                              synthetic_stage_data)
from blockmpc.integrator import IntegrationDivergedError, IntegratorConfig
from blockmpc.model import (
    OcpProblem,
    PendulumParams,
    ProblemDims,
    QuadraticCost,
    StageBounds,
    make_pendulum_problem,
    pendulum_state_step,
)
from blockmpc.qp_solver import DenseQp, QpSolution, WorkingSet, solve_qp
from blockmpc.rti import PrepareOutput, RtiController, RtiState, kkt_residual
from blockmpc.shooting import Trajectory, evaluate
from oracles import (
    loop_kkt_parts,
    perturbed_scheme_stage_data,
    ragged_stage_data,
    riccati_first_gain,
    rk4_linear_closed_form,
)


def linear_problem(rng, nx=3, nu=2, N=12, Ts=0.1):
    Ac = rng.standard_normal((nx, nx)) * 0.4
    Bc = rng.standard_normal((nx, nu))
    Q = np.diag(rng.uniform(0.5, 3.0, nx))
    R = np.diag(rng.uniform(0.2, 1.0, nu))
    QN = np.diag(rng.uniform(0.5, 3.0, nx))
    cost = QuadraticCost(Q=Q, R=R, QN=QN, x_ref=np.zeros(nx), u_ref=np.zeros(nu))
    prob = OcpProblem(dims=ProblemDims(nx, nu), rhs=lambda x, u: Ac @ x + Bc @ u,
                      jac=lambda x, u: (Ac, Bc), cost=cost,
                      bounds=StageBounds.unbounded(nx, nu),
                      intervals=[IntegratorConfig(h=Ts) for _ in range(N)])
    return prob, Ac, Bc, Q, R, QN, Ts, N


def pendulum_controller(N=20, lengths=None, Ts=0.025):
    params = PendulumParams()
    cost = QuadraticCost(Q=np.diag([10.0, 10.0, 0.1, 0.1]), R=np.diag([0.01]),
                         QN=np.diag([10.0, 10.0, 0.1, 0.1]),
                         x_ref=np.zeros(4), u_ref=np.zeros(1))
    bounds = StageBounds(x_lo=np.array([-2.0, -np.inf, -np.inf, -np.inf]),
                         x_hi=np.array([2.0, np.inf, np.inf, np.inf]),
                         u_lo=np.array([-20.0]), u_hi=np.array([20.0]))
    prob = make_pendulum_problem(params, cost, bounds, Ts, N)
    bs = unit_blocks(N) if lengths is None else from_block_lengths(lengths)
    return RtiController(prob, bs)


def test_rti_step_matches_riccati_lqr():
    rng = np.random.default_rng(31)
    prob, Ac, Bc, Q, R, QN, Ts, N = linear_problem(rng)
    ctrl = RtiController(prob, unit_blocks(N))
    Ad, Bd = rk4_linear_closed_form(Ac, Bc, Ts)
    K = riccati_first_gain(Ad, Bd, Q, R, QN, N)
    x0 = rng.standard_normal(3)
    state = ctrl.initial_state(np.zeros(3))
    u, _ = ctrl.feedback(state, ctrl.prepare(state, x0), x0)
    assert np.abs(u - (-K @ x0)).max() < 1e-8


def test_zero_gradient_point_is_fixed():
    ctrl = pendulum_controller(N=10)
    x_eq = np.zeros(4)
    state = ctrl.initial_state(x_eq)
    u, new_state = ctrl.feedback(state, ctrl.prepare(state, x_eq), x_eq)
    assert np.abs(u).max() < 1e-12
    assert np.abs(new_state.traj.us).max() < 1e-12
    assert new_state.last_kkt.total < 1e-10


def test_full_step_policy():
    # post-update trajectory equals pre-update plus expansion output exactly
    ctrl = pendulum_controller(N=12, lengths=[2, 4, 6])
    x0 = np.array([0.0, 3.0, 0.0, 0.0])
    state = ctrl.initial_state(x0)
    xhat = np.array([0.05, 2.9, 0.1, 0.0])
    prep = ctrl.prepare(state, xhat)
    sol = solve_qp(prep.qp)
    dxs = expand(prep.chain.Ghat, prep.chain.L, prep.sd.dx0, sol.z)
    u, new_state = ctrl.feedback(state, prep, xhat)
    assert np.allclose(new_state.traj.xs, state.traj.xs + dxs)
    assert np.allclose(new_state.traj.us, state.traj.us + sol.z.reshape(3, 1))
    assert np.allclose(u, new_state.traj.us[0])


def test_blocked_step_shares_input_in_expansion():
    # single integrator, lengths [2]: the one blocked step moves both intervals
    rhs = lambda x, u: np.atleast_1d(u)
    jac = lambda x, u: (np.zeros((1, 1)), np.eye(1))
    cost = QuadraticCost(Q=np.eye(1), R=0.1 * np.eye(1), QN=np.eye(1),
                         x_ref=np.ones(1), u_ref=np.zeros(1))
    prob = OcpProblem(dims=ProblemDims(1, 1), rhs=rhs, jac=jac, cost=cost,
                      bounds=StageBounds.unbounded(1, 1),
                      intervals=[IntegratorConfig(h=1.0)] * 2)
    ctrl = RtiController(prob, from_block_lengths([2]))
    state = ctrl.initial_state(np.zeros(1))
    prep = ctrl.prepare(state, np.zeros(1))
    u, new_state = ctrl.feedback(state, prep, np.zeros(1))
    du = float(new_state.traj.us[0, 0])
    assert abs(du) > 1e-3
    assert new_state.traj.xs[1, 0] == pytest.approx(du, abs=1e-12)
    assert new_state.traj.xs[2, 0] == pytest.approx(2 * du, abs=1e-12)


def test_timings_positive_and_bounded_by_total():
    ctrl = pendulum_controller(N=15, lengths=[5, 5, 5])
    x0 = np.array([0.0, 3.0, 0.0, 0.0])
    state = ctrl.initial_state(x0)
    _, new_state = ctrl.feedback(state, ctrl.prepare(state, x0), x0)
    tm = new_state.timings
    assert tm["shooting"] > 0 and tm["condensing"] > 0 and tm["qp"] > 0
    assert tm["shooting"] + tm["condensing"] + tm["qp"] <= tm["total"]


def test_unit_block_loop_matches_naive_reference():
    """Tailored controller vs an independent loop driven by naive condensing."""
    ctrl = pendulum_controller(N=20)
    prob, bs = ctrl.problem, ctrl.bs
    Ts = 0.025
    x0 = np.array([0.0, 0.4, 0.0, 0.0])

    def plant(x, u):
        h = Ts / 10
        for _ in range(10):
            k1 = prob.rhs(x, u)
            k2 = prob.rhs(x + 0.5 * h * k1, u)
            k3 = prob.rhs(x + 0.5 * h * k2, u)
            k4 = prob.rhs(x + h * k3, u)
            x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    # tailored loop
    state = ctrl.initial_state(x0)
    x = x0.copy()
    us_tailored, xs_tailored = [], []
    for _ in range(50):
        u, state = ctrl.step(state, x)
        us_tailored.append(float(u[0]))
        x = plant(x, u)
        xs_tailored.append(x.copy())

    # reference loop: same update rules, naive condensing + fresh QP solves
    from blockmpc.shooting import forward_simulate
    traj = forward_simulate(prob, bs, x0, np.zeros((20, 1)))
    x = x0.copy()
    us_ref, xs_ref = [], []
    for _ in range(50):
        sd = evaluate(prob, bs, traj, x)
        sol = solve_qp(naive_condense(sd, bs))
        from blockmpc.condensing import compute_Ghat, compute_L
        Gh = compute_Ghat(sd, bs)
        L = compute_L(sd, bs).L
        dxs = expand(Gh, L, sd.dx0, sol.z)
        traj = Trajectory(xs=traj.xs + dxs, us=traj.us + sol.z.reshape(20, 1))
        u = traj.us[0].copy()
        us_ref.append(float(u[0]))
        x = plant(x, u)
        xs_ref.append(x.copy())

    assert np.abs(np.array(us_tailored) - np.array(us_ref)).max() < 1e-9
    assert np.abs(np.array(xs_tailored) - np.array(xs_ref)).max() < 1e-9


def test_kkt_zero_at_lq_optimum():
    rng = np.random.default_rng(32)
    prob, *_ , Ts, N = linear_problem(rng)
    ctrl = RtiController(prob, unit_blocks(N))
    x0 = rng.standard_normal(3)
    state = ctrl.initial_state(np.zeros(3))
    _, new_state = ctrl.feedback(state, ctrl.prepare(state, x0), x0)
    # linear dynamics: one full Newton step reaches the NLP optimum exactly
    assert new_state.last_kkt.total < 1e-8


def qp_point(qp, z, rng=None):
    """A QpSolution of ``qp`` at z: zero multipliers, or uniform ones drawn from rng."""
    draw = (lambda k: np.zeros(k)) if rng is None else (lambda k: rng.uniform(0, 1, k))
    return QpSolution(z=np.asarray(z, dtype=float), lam_rows=draw(qp.m), lam_lb=draw(qp.n),
                      lam_ub=draw(qp.n), ws=WorkingSet(), iterations=1, status="solved",
                      start="cold")


def test_kkt_consistency_zero_step_zero_residuals():
    rng = np.random.default_rng(33)
    bs = from_block_lengths([2, 3])
    sd = synthetic_stage_data(rng, 5, 3, 1, M=2, nc=0, ncN=0)
    sd.ds[:] = 0.0
    sd.dx0[:] = 0.0
    sd.qs[:] = 0.0
    sd.rs[:] = 0.0
    sd.qN[:] = 0.0
    qp, _ = condense(sd, bs)
    report = kkt_residual(qp, qp_point(qp, np.zeros(2)), sd.ds)
    assert report.total == 0.0


def check_kkt_against_loop(sd, bs, sol=None, rng=None):
    """The report at the expanded step of ``sol`` (a random point and random
    multipliers if None) against the stage-wise node loop of the oracles."""
    qp, chain = condense(sd, bs)
    if sol is None:
        sol = qp_point(qp, rng.standard_normal(qp.n), rng)
    dxs = expand(chain.Ghat, chain.L, sd.dx0, sol.z)
    g_ref, eq_ref, viol_ref = loop_kkt_parts(sd, bs, dxs, sol.z, sol.lam_rows,
                                             sol.lam_lb, sol.lam_ub)
    got = kkt_residual(qp, sol, sd.ds)
    # at a solved point the gradient cancels to rounding: measure against its largest term
    scale = max(np.abs(g_ref).max(), np.abs(qp.g).max(), np.abs(qp.H @ sol.z).max(),
                np.abs(qp.Crows.T @ sol.lam_rows).max())
    assert abs(got.stationarity - np.abs(g_ref).max()) <= 1e-13 * scale
    assert got.eq_residual == eq_ref
    row_scale = max(1.0, np.abs(dxs).max(), np.abs(sd.c).max(initial=0.0),
                    np.abs(sd.cN).max(initial=0.0))
    assert abs(got.ineq_violation - viol_ref) <= 1e-15 * row_scale


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_kkt_matches_node_loop_on_scheme_data(scheme):
    bs, sd = perturbed_scheme_stage_data(scheme)
    check_kkt_against_loop(sd, bs, rng=np.random.default_rng(36))


@pytest.mark.parametrize("lengths", [[1, 2, 4, 5], [3, 1, 1, 2]])
def test_kkt_matches_node_loop_on_ragged_rows(lengths):
    rng = np.random.default_rng(37)
    for nc in (1, 0):
        bs, sd = ragged_stage_data(rng, lengths, 3, 2, nc=nc, ncN=2)
        check_kkt_against_loop(sd, bs, rng=rng)


@pytest.mark.parametrize("scheme", ["A", "B", "C", "ragged"])
def test_kkt_matches_node_loop_at_solved_and_truncated_steps(scheme):
    # a max_iter exit reports the dual iterate, with the partial multiplier of the entering row
    if scheme == "ragged":
        bs, sd = ragged_stage_data(np.random.default_rng(37), [1, 2, 4, 5], 3, 2)
    else:
        bs, sd = perturbed_scheme_stage_data(scheme)
    qp, _ = condense(sd, bs)
    sol = solve_qp(qp)
    assert sol.status == "solved" and sol.iterations >= 2
    check_kkt_against_loop(sd, bs, sol)
    cut = solve_qp(qp, max_iter=sol.iterations - 1)
    assert cut.status == "max-iterations"
    check_kkt_against_loop(sd, bs, cut)


def test_kkt_rejects_multipliers_of_another_qp():
    # a mismatched solution must not read as zero multipliers
    bs, sd = perturbed_scheme_stage_data("C")
    qp, _ = condense(sd, bs)
    sol = solve_qp(qp)
    for field in ("lam_rows", "lam_lb", "lam_ub"):
        short = dataclasses.replace(sol, **{field: getattr(sol, field)[1:]})
        with pytest.raises(ValueError, match="multiplier counts"):
            kkt_residual(qp, short, sd.ds)


def test_kkt_ineq_violation_reports_exact_epsilon():
    eps = 0.017
    qp = DenseQp(H=np.eye(3), g=np.zeros(3), Crows=np.array([[1.0, 0.0, 0.0]]),
                 cvec=np.array([-1.0]), lb=np.full(3, -5.0), ub=np.full(3, 5.0))
    report = kkt_residual(qp, qp_point(qp, [1.0 + eps, 0.0, 0.0]), np.zeros(2))
    assert report.ineq_violation == pytest.approx(eps, abs=1e-15)  # row value = z + c = eps > 0
    for z in ([0.0, 5.0 + eps, 0.0], [0.0, 0.0, -5.0 - eps]):  # an upper and a lower bound
        report = kkt_residual(qp, qp_point(qp, z), np.zeros(2))
        assert report.ineq_violation == pytest.approx(eps, abs=1e-15)


def test_warm_start_single_iteration_at_steady_state():
    ctrl = pendulum_controller(N=10)
    x_eq = np.zeros(4)
    state = ctrl.initial_state(x_eq)
    _, state = ctrl.feedback(state, ctrl.prepare(state, x_eq), x_eq)
    _, state2 = ctrl.feedback(state, ctrl.prepare(state, x_eq), x_eq)
    assert state2.sol.iterations <= 1


def test_feedback_overflowing_update_raises_divergence():
    # a finite step (L at 1.5e308) onto finite carried states (1.5e308) overflows the new
    # trajectory; it must read as divergence, not as the ValueError of a bad config
    ctrl = pendulum_controller(N=10)
    x0 = np.zeros(4)
    state = ctrl.initial_state(x0)
    prep = ctrl.prepare(state, x0)
    prep = dataclasses.replace(prep, chain=dataclasses.replace(
        prep.chain, L=np.full_like(prep.chain.L, 1.5e308)))
    state = RtiState(traj=Trajectory(xs=np.full_like(state.traj.xs, 1.5e308), us=state.traj.us))
    with np.errstate(over="ignore"), \
            pytest.raises(IntegrationDivergedError, match="trajectory update diverged"):
        ctrl.feedback(state, prep, x0)


def prepared(prep):
    """The arrays of a PrepareOutput."""
    return {"H": prep.qp.H, "g": prep.qp.g, "Crows": prep.qp.Crows, "cvec": prep.qp.cvec,
            "lb": prep.qp.lb, "ub": prep.qp.ub, "Ghat": prep.chain.Ghat, "L": prep.chain.L}


def as_bytes(arrays):
    return {name: (a.shape, a.tobytes()) for name, a in arrays.items()}


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_next_prepare_leaves_earlier_outputs_as_they_were(scheme):
    """The controller's condensing workspace is reused; nothing it returned may alias it."""
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.0, 0.0])
    state = ctrl.initial_state(x0)
    prep = ctrl.prepare(state, x0)
    _, new_state = ctrl.feedback(state, prep, x0)
    sol = new_state.sol
    first = prepared(prep) | {"xs": new_state.traj.xs, "us": new_state.traj.us, "z": sol.z,
                              "lam_rows": sol.lam_rows, "lam_lb": sol.lam_lb,
                              "lam_ub": sol.lam_ub}
    before, kkt = as_bytes(first), dataclasses.astuple(new_state.last_kkt)
    x1 = np.array([-0.3, 2.6, 0.5, -0.4])
    prep2 = ctrl.prepare(new_state, x1)
    ctrl.feedback(new_state, prep2, x1)
    assert as_bytes(first) == before
    assert dataclasses.astuple(new_state.last_kkt) == kkt
    second = prepared(prep2)  # the second sample did condense other data
    assert not np.array_equal(second["g"], first["g"])
    assert not np.array_equal(second["Ghat"], first["Ghat"])


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_controller_condensing_matches_free_functions_byte_for_byte(scheme):
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.0, 0.0])
    state = ctrl.initial_state(x0)
    for _ in range(3):  # the reused workspace holds earlier samples' data
        _, state = ctrl.step(state, x0)
    prep = ctrl.prepare(state, x0)
    qp, chain = condense(prep.sd, ctrl.bs)
    free = PrepareOutput(qp=qp, chain=chain, sd=prep.sd, timings={})
    assert as_bytes(prepared(prep)) == as_bytes(prepared(free))


def sample_bytes(ctrl, cfg, x, n):
    """The bytes of xs, us, z and the KKT report per sample of an n-sample closed loop
    from plant state x; the controller steps once per item taken."""
    plant = pendulum_state_step(PendulumParams(m1=cfg.m1, m2=cfg.m2, l=cfg.l, g=cfg.g))
    state = ctrl.initial_state(x)
    for _ in range(n):
        u, state = ctrl.step(state, x)
        yield (state.traj.xs.tobytes(), state.traj.us.tobytes(), state.sol.z.tobytes(),
               dataclasses.astuple(state.last_kkt))
        x = _plant_step(plant, x, u, cfg.Ts, cfg.plant_substeps)


@pytest.mark.parametrize("scheme", ["A", "C"])
def test_controllers_sharing_a_workspace_step_as_if_alone(scheme):
    """Two controllers of one structure share its workspace; stepped alternately, each
    gives byte for byte what it gives stepped alone."""
    cfg = SchemeConfig(scheme=scheme).validate()
    starts = (np.array(cfg.x0), np.array([0.3, 2.8, -0.5, 0.4]))
    alone = [list(sample_bytes(build_controller(cfg), cfg, x, 40)) for x in starts]
    ctrls = [build_controller(cfg) for _ in starts]
    assert ctrls[0].bs == ctrls[1].bs
    loops = [sample_bytes(c, cfg, x, 40) for c, x in zip(ctrls, starts)]
    interleaved = [[], []]
    for i in range(40):
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            interleaved[j].append(next(loops[j]))
    assert interleaved == alone
    assert alone[0] != alone[1]


def test_one_workspace_build_per_structure(monkeypatch):
    """A closed loop, a free counted ``condense`` and a second controller of one
    structure build its condensing workspace once between them."""
    condensing.workspace.cache_clear()
    built = []
    init = condensing.CondensingWorkspace.__init__

    def counted(self, bs, nx, nu):
        built.append(bs)
        init(self, bs, nx, nu)

    monkeypatch.setattr(condensing.CondensingWorkspace, "__init__", counted)
    cfg = SchemeConfig(scheme="C", sim_time=0.25).validate()
    assert len(run_closed_loop(cfg)) == 10
    ctrl = build_controller(cfg)
    x0 = np.array(cfg.x0)
    prep = ctrl.prepare(ctrl.initial_state(x0), x0)
    counter = FlopCounter()
    condense(prep.sd, ctrl.bs, counter)
    assert counter.mults > 0
    assert built == [ctrl.bs]
