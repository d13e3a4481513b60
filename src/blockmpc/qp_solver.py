"""Dense warm-started primal active-set solver for strictly convex QPs.

    min 0.5 z'Hz + g'z   s.t.  Crows z + cvec <= 0,  lb <= z <= ub

Constraints are identified by integer ids: 0..m-1 are the general rows,
m..m+n-1 the upper bounds, m+n..m+2n-1 the lower bounds.  The working set
holds the ids currently treated as equalities; carrying it into the next
solve is the warm start.  Each iteration refactorizes the reduced KKT
system from scratch.

The controller's QPs have up to 80 variables and 320 candidate rows
(scheme A: 160 condensed state rows, 160 input bounds); most solves take
1-2 iterations and under 1 ms.  During a swing-up the warm working set is
usually rejected: the solve restarts from the clipped unconstrained
minimizer, projects it onto violated rows (restoration) or falls back to a
big-M phase 1, and takes up to 40 iterations, up to 17 ms on scheme A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class WorkingSet:
    """Ordered ids of the constraints treated as equalities."""

    active: tuple[int, ...] = ()


@dataclass
class DenseQp:
    """Strictly convex dense QP; rows encode Crows z + cvec <= 0."""

    H: np.ndarray
    g: np.ndarray
    Crows: np.ndarray = None
    cvec: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        n = len(self.g)
        if self.Crows is None:
            self.Crows = np.zeros((0, n))
        self.Crows = np.asarray(self.Crows, dtype=float).reshape(-1, n)
        if self.cvec is None:
            self.cvec = np.zeros(0)
        self.cvec = np.asarray(self.cvec, dtype=float).reshape(-1)
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if np.any(self.lb > self.ub):
            raise ValueError("lb must not exceed ub")

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def m(self) -> int:
        return self.Crows.shape[0]


@dataclass
class QpSolution:
    z: np.ndarray
    lam_rows: np.ndarray
    lam_lb: np.ndarray
    lam_ub: np.ndarray
    ws: WorkingSet
    iterations: int
    status: str  # "solved" | "max-iterations" | "infeasible-detected"
    start: str   # "warm" | "cold" | "restored" | "phase1": where the first iterate came from
    obj_history: list = field(default_factory=list)


def _unified(qp: DenseQp):
    """All constraints as rows a_i' z <= b_i; ids of infinite bounds are excluded
    (their rows and right-hand sides are zero)."""
    up, lo = np.isfinite(qp.ub), np.isfinite(qp.lb)
    A = np.concatenate([qp.Crows, np.diag(np.where(up, 1.0, 0.0)),
                        np.diag(np.where(lo, -1.0, 0.0))])
    b = np.concatenate([-qp.cvec, np.where(up, qp.ub, 0.0), np.where(lo, -qp.lb, 0.0)])
    usable = np.concatenate([np.ones(qp.m, dtype=bool), up, lo])
    return A, b, usable


def _eqp(H, g, A_w, b_w):
    """Minimize 0.5 z'Hz + g'z subject to A_w z = b_w; returns (z, lam).

    One pass of iterative refinement keeps the KKT residual near machine
    precision even for ill-conditioned systems, which makes warm restarts
    reproduce the cold solution essentially exactly.
    """
    n = len(g)
    k = A_w.shape[0]
    if k == 0:
        sol = np.linalg.solve(H, -g)
        sol += np.linalg.solve(H, -g - H @ sol)
        return sol, np.zeros(0)
    K = np.zeros((n + k, n + k))
    K[:n, :n] = H
    K[:n, n:] = A_w.T
    K[n:, :n] = A_w
    rhs = np.concatenate([-g, b_w])
    try:
        sol = np.linalg.solve(K, rhs)
        sol += np.linalg.solve(K, rhs - K @ sol)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _extend_basis(Q, a):
    """Orthonormal rows Q plus the direction of a, or None if a lies in span(Q):
    its part orthogonal to Q is at most 1e-10 * max(1, |a|).  Projecting twice
    (Gram-Schmidt with reorthogonalization) keeps Q orthonormal to rounding."""
    r = a - (Q @ a) @ Q
    r -= (Q @ r) @ Q
    norm = np.linalg.norm(r)
    if norm <= 1e-10 * max(1.0, np.linalg.norm(a)):
        return None
    return np.vstack([Q, r / norm])


def _prune_dependent(A, ids):
    """Keep a maximal linearly independent subset of the rows, in order."""
    kept = []
    Q = np.zeros((0, A.shape[1]))
    for i in ids:
        Q_next = _extend_basis(Q, A[i])
        if Q_next is not None:
            kept.append(i)
            Q = Q_next
    return kept


def _restore_feasibility(z, A, b, usable, feas_tol):
    """Iteratively project onto the accumulated set of most-violated rows.

    Bound rows take part like any other row.  Stalls (a projected row gets
    re-violated by a later projection, or the forced rows' Gram matrix, which
    squares their conditioning, is singular) fall back to the big-M phase 1.
    """
    forced: list[int] = []
    Q = np.zeros((0, A.shape[1]))  # orthonormal basis of the forced rows
    for _ in range(len(b) + 1):
        resid = A @ z - b
        resid[~usable] = -np.inf
        worst = int(np.argmax(resid))
        if resid[worst] <= feas_tol:
            return z, True
        if worst in forced:
            return z, False
        Q = _extend_basis(Q, A[worst])
        if Q is None:
            return z, False  # violated row dependent on already-forced rows
        forced.append(worst)
        Af = A[forced]
        try:
            z = z + Af.T @ np.linalg.solve(Af @ Af.T, b[forced] - Af @ z)
        except np.linalg.LinAlgError:
            return z, False
    return z, False


def _ratio_test(Ap, resid, ids, in_W):
    """Largest step alpha <= 1 along p and the row that blocks it (-1: none).

    Row ids[r] (ids ascending) has a'p = Ap[r] and slack resid[r]; working-set
    rows and rows with a'p <= 1e-12 never block.  The smallest step wins, ties
    (within 1e-14) by the lowest id; only steps below 1 are scanned in Python.
    """
    moving = np.flatnonzero(~in_W & (Ap > 1e-12))
    steps = resid[moving] / Ap[moving]
    early = steps < 1.0 - 1e-14
    alpha, blocker = 1.0, -1
    for i, a_step in zip(ids[moving[early]], steps[early]):
        if a_step < alpha - 1e-14:
            alpha = max(a_step, 0.0)
            blocker = int(i)
    return alpha, blocker


def _phase1(qp: DenseQp, tol, max_iter):
    """Big-M fallback: minimize the QP objective plus M*s with rows relaxed by s >= 0.

    The augmented problem always has the strictly feasible start
    (clip(-H^-1 g), max violation + 1), so it never recurses.
    """
    n, m = qp.n, qp.m
    scale = max(1.0, np.abs(qp.g).max(initial=0.0), np.abs(qp.H).max())
    bigM = 1e6 * scale
    H1 = np.zeros((n + 1, n + 1))
    H1[:n, :n] = qp.H
    H1[n, n] = 1e-3 * scale
    g1 = np.concatenate([qp.g, [bigM]])
    C1 = np.hstack([qp.Crows, -np.ones((m, 1))])
    lb1 = np.concatenate([qp.lb, [0.0]])
    ub1 = np.concatenate([qp.ub, [np.inf]])
    aug = DenseQp(H=H1, g=g1, Crows=C1, cvec=qp.cvec, lb=lb1, ub=ub1)
    z0 = np.clip(np.linalg.solve(qp.H, -qp.g), qp.lb, qp.ub)
    s0 = max(0.0, float((qp.Crows @ z0 + qp.cvec).max(initial=0.0))) + 1.0
    sol = solve_qp(aug, tol=tol, max_iter=max_iter,
                   _start=np.concatenate([z0, [s0]]))
    return sol.z[:n], sol.z[n]


def solve_qp(qp: DenseQp, warm: WorkingSet | None = None, tol: float = 1e-8,
             max_iter: int | None = None, _start: np.ndarray | None = None) -> QpSolution:
    """Primal active-set iteration with deterministic tie-breaking.

    Blocking constraint: smallest step, ties by lowest id.  Removal: most
    negative multiplier, ties by the earliest working-set entry.  Warm-started
    re-solves of unchanged data terminate after a single iteration.
    """
    n, m = qp.n, qp.m
    if max_iter is None:
        max_iter = 100 * (n + m)
    feas_tol = max(tol, 1e-9)
    A, b, usable = _unified(qp)
    cand = np.flatnonzero(usable)
    Ac, bc = A[cand], b[cand]

    def feasible(z):
        return bool(np.all(Ac @ z - bc <= feas_tol))

    # starting point: warm equality solve if usable, else clip + restoration
    z = None
    W: list[int] = []
    if _start is not None:
        z, start = np.asarray(_start, dtype=float).copy(), "phase1"
    elif warm is not None and len(warm.active):
        ids = [i for i in warm.active if 0 <= i < len(b) and usable[i]]
        ids = _prune_dependent(A, ids)
        z_try, _ = _eqp(qp.H, qp.g, A[ids], b[ids])
        if feasible(z_try):
            z, W, start = z_try, ids, "warm"
    if z is None:
        z, start = np.clip(np.linalg.solve(qp.H, -qp.g), qp.lb, qp.ub), "cold"
        if not feasible(z):
            z, ok = _restore_feasibility(z, A, b, usable, feas_tol)
            start = "restored" if ok else "phase1"
            if not ok:
                z, slack = _phase1(qp, tol, max_iter)
                if slack > 10.0 * feas_tol or not feasible(z):
                    return QpSolution(z=z, lam_rows=np.zeros(m), lam_lb=np.zeros(n),
                                      lam_ub=np.zeros(n), ws=WorkingSet(), iterations=0,
                                      status="infeasible-detected", start=start)
        W = []

    def solution(status, it, lam_W):
        # lam_W pairs with W in order; after a max-iterations exit W may have
        # gained or lost a row since lam_W was computed, and the surplus is dropped
        lam = np.zeros(len(b))
        lam[W[:len(lam_W)]] = lam_W[:len(W)]
        return QpSolution(z=z, lam_rows=lam[:m], lam_lb=lam[m + n:], lam_ub=lam[m:m + n],
                          ws=WorkingSet(tuple(W)), iterations=it, status=status,
                          start=start, obj_history=obj_history)

    def objective(v):
        return 0.5 * v @ qp.H @ v + qp.g @ v

    obj_history = [objective(z)]
    lam_W = np.zeros(len(W))

    for it in range(1, max_iter + 1):
        grad = qp.H @ z + qp.g
        p, lam_W = _eqp(qp.H, grad, A[W], np.zeros(len(W)))
        step_tol = 1e-11 * max(1.0, float(np.abs(z).max(initial=0.0)))

        if np.abs(p).max(initial=0.0) <= step_tol:
            obj_history.append(objective(z))
            if len(W) == 0 or lam_W.min() >= -tol:
                return solution("solved", it, lam_W)
            W.pop(int(np.argmin(lam_W)))
            continue

        in_W = np.zeros(len(b), dtype=bool)
        in_W[W] = True
        alpha, blocker = _ratio_test(Ac @ p, bc - Ac @ z, cand, in_W[cand])
        z = z + alpha * p
        obj_history.append(objective(z))
        if blocker >= 0:
            W.append(blocker)
        else:
            # full step reached the EQP minimizer: multipliers from this
            # solve are valid at the new point, so check optimality now
            if len(W) == 0 or lam_W.min() >= -tol:
                return solution("solved", it, lam_W)
            W.pop(int(np.argmin(lam_W)))

    return solution("max-iterations", max_iter, lam_W)
