import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmpc.qp_solver import (
    DenseQp,
    WorkingSet,
    _prune_dependent,
    _ratio_test,
    _restore_feasibility,
    _unified,
    solve_qp,
)
from oracles import enumerate_qp, loop_ratio_test, loop_restore_feasibility, lstsq_prune_dependent


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


def test_unconstrained_solution():
    sol = solve_qp(DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0])))
    assert sol.status == "solved"
    assert np.allclose(sol.z, [1.0, 1.0])
    assert len(sol.ws.active) == 0


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


def test_monotone_objective_decrease():
    rng = np.random.default_rng(26)
    for _ in range(30):
        qp = random_qp(rng)
        sol = solve_qp(qp)
        hist = np.array(sol.obj_history)
        assert np.all(np.diff(hist) <= 1e-10)


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


def test_restoration_path_used_when_clip_start_violates_rows():
    # unconstrained minimum at origin violates the row z1 + z2 <= -4
    qp = DenseQp(H=np.eye(2), g=np.zeros(2),
                 Crows=np.array([[1.0, 1.0]]), cvec=np.array([4.0]))
    sol = solve_qp(qp)
    assert sol.status == "solved"
    assert np.allclose(sol.z, [-2.0, -2.0], atol=1e-8)


def test_max_iterations_flagged():
    rng = np.random.default_rng(28)
    qp = random_qp(rng, n=5, m=6, with_bounds=True)
    sol = solve_qp(qp, max_iter=1)
    assert sol.status in ("solved", "max-iterations")
    ref = solve_qp(qp)
    if sol.status == "max-iterations":
        # best iterate is still feasible
        assert (qp.Crows @ sol.z + qp.cvec).max() < 1e-7
        assert 0.5 * sol.z @ qp.H @ sol.z + qp.g @ sol.z >= \
            0.5 * ref.z @ qp.H @ ref.z + qp.g @ ref.z - 1e-10


def test_working_set_ids_stable_across_resolves():
    qp = DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0]), ub=np.array([0.5, 0.5]))
    sol = solve_qp(qp)
    ws = sol.ws
    sol2 = solve_qp(qp, warm=WorkingSet(tuple(ws.active)))
    assert sol2.ws.active == ws.active


def test_lb_ub_must_be_ordered():
    with pytest.raises(ValueError):
        DenseQp(H=np.eye(1), g=np.zeros(1), lb=np.array([1.0]), ub=np.array([0.0]))


# --- start path -----------------------------------------------------------------

def test_start_path_recorded():
    box = DenseQp(H=np.eye(2), g=np.array([-1.0, -1.0]), ub=np.array([0.5, 0.5]))
    cold = solve_qp(box)
    assert cold.start == "cold"
    assert solve_qp(box, warm=cold.ws).start == "warm"
    # the warm EQP solution (1, 1) violates the bounds; the clipped start does not
    assert solve_qp(box, warm=WorkingSet((3,))).start == "cold"
    row = DenseQp(H=np.eye(2), g=np.zeros(2), Crows=np.array([[1.0, 1.0]]),
                  cvec=np.array([4.0]))
    assert solve_qp(row).start == "restored"
    empty = DenseQp(H=np.eye(1), g=np.zeros(1),
                    Crows=np.array([[1.0], [-1.0]]), cvec=np.array([1.0, 1.0]))
    assert solve_qp(empty).start == "phase1"


# --- row tests against their loop forms -----------------------------------------

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


def test_prune_keeps_the_ids_of_the_lstsq_loop():
    rng = np.random.default_rng(40)
    dropped = 0
    for _ in range(200):
        A, ids = dependent_rows(rng, int(rng.choice([2, 5, 12, 80])))
        kept = _prune_dependent(A, ids)
        assert kept == lstsq_prune_dependent(A, ids)
        dropped += len(ids) - len(kept)
    assert dropped > 1000


def test_prune_keeps_at_most_n_rows_of_ill_conditioned_sets():
    # Once nearly dependent kept rows fill R^n, the lstsq residual of a row in
    # their span can read above the threshold: the loop form keeps all three
    # of (1, 0), (1, 1e-7), (0, 1).  The orthonormal basis keeps at most n.
    A = np.array([[1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]])
    assert lstsq_prune_dependent(A, [0, 1, 2]) == [0, 1, 2]
    assert _prune_dependent(A, [0, 1, 2]) == [0, 1]
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.choice([5, 12, 30]))
        B = rng.standard_normal((n - 1, n))
        A = np.vstack([B, B[0] + 1e-7 * rng.standard_normal(n), rng.standard_normal((5, n))])
        kept = _prune_dependent(A, list(rng.permutation(len(A))))
        assert len(kept) == n == np.linalg.matrix_rank(A[kept])


def ratio_case(rng):
    r = int(rng.integers(1, 40))
    ids = np.sort(rng.choice(500, r, replace=False))
    Ap = rng.standard_normal(r)
    Ap[rng.random(r) < 0.1] = 1e-12         # on the threshold: never blocks
    resid = np.abs(rng.standard_normal(r)) * rng.choice([0.1, 1.0, 10.0], r)
    resid[rng.random(r) < 0.1] = -1e-10     # slightly violated: step below 0
    pos = np.flatnonzero(Ap > 1e-12)
    if len(pos) >= 3:
        a, b, c = rng.choice(pos, 3, replace=False)
        Ap[b], resid[b] = 2.0 * Ap[a], 2.0 * resid[a]          # the exact same step
        resid[c] = resid[a] / Ap[a] * Ap[c] - 5e-15 * Ap[c]    # within 1e-14 below it
    return Ap, resid, ids, rng.random(r) < 0.2


def test_ratio_test_picks_the_blocker_of_the_candidate_loop():
    rng = np.random.default_rng(41)
    blocked = 0
    for _ in range(500):
        Ap, resid, ids, in_W = ratio_case(rng)
        got = _ratio_test(Ap, resid, ids, in_W)
        assert got == loop_ratio_test(Ap, resid, ids, in_W)
        blocked += got[1] >= 0
    assert 100 < blocked < 500


def test_ratio_test_ties_and_working_set_rows():
    ids = np.array([2, 5, 7, 9, 11])
    Ap = np.array([1.0, 2.0, 1.0, 4.0, 1.0])
    resid = np.array([0.3, 0.8, 0.4, 1.6, 0.2])    # steps 0.3, 0.4, 0.4, 0.4, 0.2
    in_W = np.array([True, False, False, False, True])
    for got in (_ratio_test(Ap, resid, ids, in_W), loop_ratio_test(Ap, resid, ids, in_W)):
        assert got == (0.4, 5)  # the working-set rows 2 and 11 would block first
    in_W[:] = False
    assert _ratio_test(Ap, resid, ids, in_W) == (0.2, 11)
    resid[:] = -1e-9                               # every step negative: alpha 0
    assert _ratio_test(Ap, resid, ids, in_W) == loop_ratio_test(Ap, resid, ids, in_W)


def test_restoration_stalls_on_row_dependent_on_forced_rows():
    # From the origin restoration forces row 0, then row 1; their projection
    # (-4, -1.6, -0.8) violates row 2 = 0.1 row 0 - 0.3 row 1.  The Gram
    # matrix of all three is singular only up to rounding and solves without
    # error, so only the independence test stops a projection onto them.
    qp = DenseQp(H=np.eye(3), g=np.zeros(3),
                 Crows=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.1, -0.3, -0.15]]),
                 cvec=np.array([4.0, 2.0, -0.1]))
    A, b, usable = _unified(qp)
    for restore in (_restore_feasibility, loop_restore_feasibility):
        z, ok = restore(np.zeros(3), A, b, usable, 1e-8)
        assert not ok
        assert np.allclose(z, [-4.0, -1.6, -0.8], rtol=0, atol=1e-15)
    sol = solve_qp(qp)
    assert sol.start == "phase1" and sol.status == "solved"
    assert np.abs(sol.z - enumerate_qp(qp)).max() < 1e-8
    assert np.allclose(sol.z, [-5.0, -1.6, -0.8])
