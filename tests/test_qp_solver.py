import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmpc import qp_solver
from blockmpc.qp_solver import DenseQp, _inv_lower, solve_qp
from oracles import enumerate_qp


def random_qp(rng, n=None, m=None, with_bounds=None):
    n = n if n is not None else int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(0, 9 - min(4, n)))
    F = rng.standard_normal((n, n))
    H = F @ F.T + np.eye(n)
    g = 2.0 * rng.standard_normal(n)
    z0 = rng.standard_normal(n)
    Crows = rng.standard_normal((m, n))
    cvec = -(Crows @ z0) - np.abs(rng.standard_normal(m))  # z0 strictly feasible
    lb = ub = None
    if with_bounds if with_bounds is not None else rng.random() < 0.5:
        lb = z0 - np.abs(rng.standard_normal(n)) - 0.1
        ub = z0 + np.abs(rng.standard_normal(n)) + 0.1
    return DenseQp(H=H, g=g, Crows=Crows, cvec=cvec, lb=lb, ub=ub)


def stationarity(qp, sol):
    r = qp.H @ sol.z + qp.g + qp.Crows.T @ sol.lam_rows + sol.lam_ub - sol.lam_lb
    return np.abs(r).max()


def objective(qp, z):
    return 0.5 * z @ qp.H @ z + qp.g @ z


def assert_same_solution(a, b):
    """Every field of two QpSolutions equal, the arrays in shape and byte for byte."""
    for name, x in vars(a).items():
        y = getattr(b, name)
        if isinstance(x, np.ndarray):
            assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), name
        else:
            assert x == y, name


def assert_empty_warm_set_is_cold(qp, **kw):
    """An empty warm set takes the cold start: the same solution as no warm set."""
    cold = solve_qp(qp, **kw)
    assert cold.start == "cold"
    assert_same_solution(solve_qp(qp, warm=(), **kw), cold)


def test_unconstrained_solution():
    sol = solve_qp(DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0])))
    assert sol.status == "solved"
    assert np.allclose(sol.z, [1.0, 1.0])
    assert len(sol.ws) == 0


def test_active_upper_bounds_with_multipliers():
    qp = DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0]), ub=np.array([0.5, 0.5]))
    sol = solve_qp(qp)
    assert np.allclose(sol.z, [0.5, 0.5])
    assert np.allclose(sol.lam_ub, [0.5, 0.5])
    assert stationarity(qp, sol) < 1e-10


def test_oracle_agreement_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        qp = random_qp(rng)
        sol = solve_qp(qp)
        ref = enumerate_qp(qp)
        assert sol.status == "solved"
        assert ref is not None
        assert np.abs(sol.z - ref).max() < 1e-8
        assert stationarity(qp, sol) < 1e-7


def test_kkt_conditions_at_solution():
    rng = np.random.default_rng(24)
    for _ in range(50):
        qp = random_qp(rng)
        sol = solve_qp(qp)
        assert sol.status == "solved"
        # primal feasibility
        if qp.m:
            assert (qp.Crows @ sol.z + qp.cvec).max() < 1e-7
        assert np.all(sol.z >= qp.lb - 1e-9) and np.all(sol.z <= qp.ub + 1e-9)
        # dual feasibility
        assert sol.lam_rows.min(initial=0.0) >= -1e-8
        assert sol.lam_lb.min(initial=0.0) >= -1e-8
        assert sol.lam_ub.min(initial=0.0) >= -1e-8
        # complementary slackness
        if qp.m:
            assert np.abs(sol.lam_rows * (qp.Crows @ sol.z + qp.cvec)).max() < 1e-6
        assert stationarity(qp, sol) < 1e-7


def test_warm_start_idempotence():
    rng = np.random.default_rng(25)
    for _ in range(30):
        qp = random_qp(rng)
        sol = solve_qp(qp)
        re = solve_qp(qp, warm=sol.ws)
        assert re.iterations <= 1
        assert np.abs(re.z - sol.z).max() < 1e-12
        assert_empty_warm_set_is_cold(qp)


def test_monotone_objective_decrease():
    # a dual method's objective rises toward the optimum, so the gap decreases;
    # a solve cut after k < sol.iterations iterations returns iterate k
    rng = np.random.default_rng(26)
    for _ in range(30):
        qp = random_qp(rng)
        sol = solve_qp(qp)
        iterates = [solve_qp(qp, max_iter=k).z for k in range(sol.iterations)]
        gap = objective(qp, sol.z) - np.array([objective(qp, z) for z in iterates])
        assert np.all(np.diff(gap) <= 1e-10) and gap[-1] >= -1e-10


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 1e3))
def test_scale_equivariance(alpha):
    rng = np.random.default_rng(27)
    qp = random_qp(rng, n=4, m=3, with_bounds=True)
    base = solve_qp(qp)
    scaled = DenseQp(H=alpha * qp.H, g=alpha * qp.g, Crows=qp.Crows, cvec=qp.cvec,
                     lb=qp.lb, ub=qp.ub)
    sol = solve_qp(scaled)
    assert np.abs(sol.z - base.z).max() < 1e-10 * max(1.0, np.abs(base.z).max())


def test_infeasible_detected():
    # z <= -1 and z >= 1 cannot hold together
    qp = DenseQp(H=np.eye(1), g=np.zeros(1),
                 Crows=np.array([[1.0], [-1.0]]), cvec=np.array([1.0, 1.0]))
    sol = solve_qp(qp)
    assert sol.status == "infeasible-detected"


def test_row_violated_by_unconstrained_minimizer_enters():
    # unconstrained minimum at origin violates the row z1 + z2 <= -4
    qp = DenseQp(H=np.eye(2), g=np.zeros(2),
                 Crows=np.array([[1.0, 1.0]]), cvec=np.array([4.0]))
    sol = solve_qp(qp)
    assert sol.status == "solved"
    assert np.allclose(sol.z, [-2.0, -2.0], atol=1e-8)


def test_max_iterations_flagged():
    # a truncated solve returns a consistent dual iterate: stationary with the
    # partial multiplier of the row being added, dual feasible, below the optimum
    rng = np.random.default_rng(28)
    truncated = 0
    for _ in range(100):
        qp = random_qp(rng, n=5, m=6, with_bounds=True)
        ref = solve_qp(qp)
        for k in range(1, ref.iterations):
            sol = solve_qp(qp, max_iter=k)
            assert sol.status == "max-iterations" and sol.iterations == k
            assert stationarity(qp, sol) < 1e-10
            assert min(sol.lam_rows.min(), sol.lam_lb.min(), sol.lam_ub.min()) >= 0.0
            assert objective(qp, sol.z) <= objective(qp, ref.z) + 1e-10
            truncated += 1
    assert truncated > 300


def test_working_set_ids_stable_across_resolves():
    qp = DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0]), ub=np.array([0.5, 0.5]))
    sol = solve_qp(qp)
    ws = sol.ws
    sol2 = solve_qp(qp, warm=ws)
    assert sol2.ws == ws


def test_blocked_triangular_inverse_matches_general_inverse():
    rng = np.random.default_rng(29)
    for n in (1, 10, 16, 17, 33, 80):
        F = rng.standard_normal((n, n))
        L = np.linalg.cholesky(F @ F.T + np.eye(n))
        X = _inv_lower(L)
        assert np.array_equal(X, np.tril(X))
        assert np.abs(X - np.linalg.inv(L)).max() < 1e-12 * np.abs(X).max()


def test_feasible_unconstrained_minimizer_needs_no_factor(monkeypatch):
    # H is factored (and L^-1 formed) only once a row enters the working set
    def no_factor(L):
        raise AssertionError("_inv_lower called")

    monkeypatch.setattr(qp_solver, "_inv_lower", no_factor)
    rng = np.random.default_rng(30)
    for n, m in ((1, 0), (4, 3), (6, 5)):
        F = rng.standard_normal((n, n))
        H, g = F @ F.T + np.eye(n), rng.standard_normal(n)
        z_free = np.linalg.solve(H, -g)
        C = rng.standard_normal((m, n))
        qp = DenseQp(H=H, g=g, Crows=C, cvec=-(C @ z_free) - 0.5,
                     lb=z_free - 1.0, ub=z_free + 1.0)
        sol = solve_qp(qp)
        assert (sol.status, sol.iterations, sol.start, sol.ws) == ("solved", 1, "cold", ())
        assert np.abs(sol.z - enumerate_qp(qp)).max() < 1e-12
    # a violated row does form the factor
    with pytest.raises(AssertionError, match="_inv_lower"):
        solve_qp(DenseQp(H=np.eye(2), g=np.zeros(2), ub=np.array([-1.0, 1.0])))


def test_lb_ub_must_be_ordered():
    with pytest.raises(ValueError):
        DenseQp(H=np.eye(1), g=np.zeros(1), lb=np.array([1.0]), ub=np.array([0.0]))


# --- start path -----------------------------------------------------------------

def test_start_path_recorded():
    box = DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0]), ub=np.array([0.5, 0.5]))
    cold = solve_qp(box)
    assert cold.start == "cold"
    assert solve_qp(box, warm=cold.ws).start == "warm"
    # id 3 is the infinite lower bound of z2: nothing of the warm set is usable
    assert solve_qp(box, warm=(3,)).start == "cold"
    # the warm equality point (1, 1) violates both bounds; the dual start needs no feasibility
    assert solve_qp(box, warm=(0,)).start == "warm"
    # three usable rows on two variables are dependent
    boxed = DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0]), lb=-np.ones(2), ub=np.full(2, 0.5))
    assert solve_qp(boxed, warm=(0, 1, 2)).start == "cold"
    twice = DenseQp(H=np.eye(2), g=np.zeros(2), Crows=np.array([[1.0, 1.0], [2.0, 2.0]]),
                    cvec=np.array([4.0, 8.0]))
    ref = solve_qp(twice)
    dependent = solve_qp(twice, warm=(0, 1))
    assert dependent.start == "cold" and dependent.status == "solved"
    assert np.array_equal(dependent.z, ref.z) and np.allclose(ref.z, [-2.0, -2.0])


# --- degenerate rows ------------------------------------------------------------

def dependent_rows(rng, n):
    """Rows in random order: random rows (fewer than n/2 + 2), +-e_i pairs,
    exact duplicates, scaled copies and combinations perturbed by 1e-12."""
    base = list(rng.standard_normal((int(rng.integers(1, n // 2 + 2)), n)))
    for i in rng.choice(n, min(n, 3), replace=False):
        e = np.zeros(n)
        e[i] = 1.0
        base += [e, -e]
    rows = list(base)
    for _ in range(int(rng.integers(1, 6))):
        rows.append(base[int(rng.integers(len(base)))].copy())
        rows.append(rng.choice([-3.0, -1e-3, 0.5, 2.5, 1e4]) * base[int(rng.integers(len(base)))])
        rows.append(rng.standard_normal(len(base)) @ np.array(base)
                    + 1e-12 * rng.standard_normal(n))
    A = np.array(rows)
    return A, list(rng.permutation(len(A)))


def test_degenerate_qps_match_enumeration():
    # About half the rows (and bounds) are active at z0, so duplicates, +-e_i
    # pairs (fixed variables) and scaled copies meet there; in some QPs one
    # row is moved past z0, which leaves some of them infeasible.  n <= 3
    # keeps every variable boxed by its +-e_i rows.
    rng = np.random.default_rng(43)
    infeasible = 0
    for _ in range(120):
        n = int(rng.choice([2, 3]))
        A, order = dependent_rows(rng, n)
        A = A[order]
        z0 = rng.standard_normal(n)
        slack = np.where(rng.random(len(A)) < 0.5, 0.0, np.abs(rng.standard_normal(len(A))))
        if rng.random() < 0.4:
            slack[rng.integers(len(A))] = -0.1 - np.abs(rng.standard_normal())
        lb = ub = None
        if rng.random() < 0.5:
            lb = z0 - np.where(rng.random(n) < 0.5, 0.0, np.abs(rng.standard_normal(n)))
            ub = z0 + np.where(rng.random(n) < 0.5, 0.0, np.abs(rng.standard_normal(n)))
        F = rng.standard_normal((n, n))
        qp = DenseQp(H=F @ F.T + np.eye(n), g=2.0 * rng.standard_normal(n), Crows=A,
                     cvec=-(A @ z0) - slack, lb=lb, ub=ub)
        sol = solve_qp(qp)
        ref = enumerate_qp(qp)
        if ref is None:
            assert sol.status == "infeasible-detected"
            infeasible += 1
        else:
            assert sol.status == "solved"
            assert np.abs(sol.z - ref).max() < 1e-8 * max(1.0, np.abs(ref).max())
    assert 10 < infeasible < 60


def test_row_dependent_on_two_violated_rows_solves():
    # Row 2 = 0.1 row 0 - 0.3 row 1, and the projection of the origin onto
    # rows 0 and 1, (-4, -1.6, -0.8), violates it: a primal restoration that
    # forces violated rows one at a time stalls here.
    qp = DenseQp(H=np.eye(3), g=np.zeros(3),
                 Crows=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.1, -0.3, -0.15]]),
                 cvec=np.array([4.0, 2.0, -0.1]))
    sol = solve_qp(qp)
    assert sol.status == "solved"
    assert np.abs(sol.z - enumerate_qp(qp)).max() < 1e-8
    assert np.allclose(sol.z, [-5.0, -1.6, -0.8])


# --- controller size --------------------------------------------------------------

def controller_size_qp(rng, n=80, m=160):
    """Scheme-A-sized QP: 80 variables, 160 rows and boxes on which 20-40 bounds end active."""
    F = rng.standard_normal((n, n)) / np.sqrt(n)
    C = rng.standard_normal((m, n)) / np.sqrt(n)
    return DenseQp(H=F @ F.T + 0.1 * np.eye(n), g=2.0 * rng.standard_normal(n), Crows=C,
                   cvec=-2.0 - np.abs(rng.standard_normal(m)), lb=np.full(n, -2.5),
                   ub=np.full(n, 2.5))


def assert_kkt_certificate(qp, sol, rtol=1e-8):
    assert sol.status == "solved"
    scale = max(1.0, np.abs(qp.g).max(), np.abs(qp.cvec).max(), np.abs(qp.ub).max())
    rows = qp.Crows @ sol.z + qp.cvec
    assert stationarity(qp, sol) <= rtol * scale
    assert rows.max() <= rtol * scale
    assert np.all(sol.z <= qp.ub + rtol * scale) and np.all(sol.z >= qp.lb - rtol * scale)
    assert min(sol.lam_rows.min(), sol.lam_lb.min(), sol.lam_ub.min()) >= -rtol * scale
    assert np.abs(sol.lam_rows * rows).max() <= rtol * scale ** 2
    assert np.abs(sol.lam_ub * (sol.z - qp.ub)).max() <= rtol * scale ** 2
    assert np.abs(sol.lam_lb * (qp.lb - sol.z)).max() <= rtol * scale ** 2


def test_controller_size_solves_meet_kkt_and_restart_warm():
    # long chains of appended columns, with rows dropped on the way
    rng = np.random.default_rng(44)
    drops = 0
    for _ in range(4):
        qp = controller_size_qp(rng)
        sol = solve_qp(qp)
        assert_kkt_certificate(qp, sol)
        assert 20 <= sum(i >= qp.m for i in sol.ws) <= 40
        drops += (sol.iterations - 1 - len(sol.ws)) // 2  # cold: adds + drops + 1
        re = solve_qp(qp, warm=sol.ws)
        assert (re.start, re.iterations, re.ws) == ("warm", 1, sol.ws)
        assert np.abs(re.z - sol.z).max() <= 1e-10 * max(1.0, np.abs(sol.z).max())
        assert_empty_warm_set_is_cold(qp)
    assert drops > 0


def test_entering_rows_update_the_factor_in_place(monkeypatch):
    # only a dropped row or a warm set re-factors; only a cold start solves with H
    calls = {"qr": 0, "solve": 0}

    def counting(name):
        fn = getattr(np.linalg, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    rng = np.random.default_rng(44)
    for _ in range(2):
        qp = controller_size_qp(rng)
        calls.update(qr=0, solve=0)
        sol = solve_qp(qp)
        drops = (sol.iterations - 1 - len(sol.ws)) // 2
        assert sol.iterations > 30 and calls == {"qr": drops, "solve": 1}
        calls.update(qr=0, solve=0)
        solve_qp(qp, warm=sol.ws)
        assert calls == {"qr": 1, "solve": 0}


def test_controller_size_warm_chain_over_drifting_gradient():
    # the controller's pattern: each solve starts from the previous working set
    rng = np.random.default_rng(45)
    qp = controller_size_qp(rng)
    drift = 0.1 * rng.standard_normal(qp.n)
    ws, changed = (), 0
    for k in range(12):
        step = DenseQp(H=qp.H, g=qp.g + k * drift, Crows=qp.Crows, cvec=qp.cvec, lb=qp.lb,
                       ub=qp.ub)
        sol = solve_qp(step, warm=ws)
        assert_kkt_certificate(step, sol)
        assert sol.start == ("cold" if k == 0 else "warm")
        changed += sol.ws != ws
        cold = solve_qp(step)
        assert np.abs(sol.z - cold.z).max() <= 1e-10 * max(1.0, np.abs(cold.z).max())
        re = solve_qp(step, warm=sol.ws)
        assert re.iterations == 1 and np.abs(re.z - sol.z).max() <= 1e-10 * max(1.0, np.abs(sol.z).max())
        ws = sol.ws
    assert changed > 6


def test_controller_size_infeasible_and_max_iterations():
    rng = np.random.default_rng(46)
    qp = controller_size_qp(rng)
    # sum(z) >= 80 * 2.5 + 1 cannot hold inside the box: detected after many bounds enter
    wall = DenseQp(H=qp.H, g=qp.g, Crows=np.vstack([qp.Crows, -np.ones(qp.n)]),
                   cvec=np.append(qp.cvec, 2.5 * qp.n + 1.0), lb=qp.lb, ub=qp.ub)
    sol = solve_qp(wall)
    assert sol.status == "infeasible-detected" and sol.iterations > 20
    ref = solve_qp(qp)
    for k in (5, ref.iterations // 2, ref.iterations - 1):
        cut = solve_qp(qp, max_iter=k)
        assert (cut.status, cut.iterations) == ("max-iterations", k)
        assert stationarity(qp, cut) <= 1e-8 * max(1.0, np.abs(qp.g).max())
        assert min(cut.lam_rows.min(), cut.lam_lb.min(), cut.lam_ub.min()) >= 0.0
