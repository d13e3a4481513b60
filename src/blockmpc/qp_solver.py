"""Dense warm-started dual active-set solver for strictly convex QPs.

    min 0.5 z'Hz + g'z   s.t.  Crows z + cvec <= 0,  lb <= z <= ub

Constraints are identified by integer ids: 0..m-1 are the general rows,
m..m+n-1 the upper bounds, m+n..m+2n-1 the lower bounds.  The working set
holds the ids currently treated as equalities; carrying it into the next
solve is the warm start.

The iteration is Goldfarb and Idnani's (Math. Prog. 27, 1983): it starts
from a dual-feasible point, the unconstrained minimizer or the equality
solve of the warm working set with its negative multipliers dropped, and
adds the most violated row, dropping rows whose multiplier would turn
negative on the way.  Every iterate keeps a consistent primal-dual pair, so
no feasible start is needed, and a violated row that admits neither a
primal nor a dual step certifies that the QP is infeasible.

H is factored as H = L L' and L^-1 formed once per solve, and only once a
row enters the working set or a warm set is given; the unconstrained
minimizer, one linear solve with H, is computed only where it is used (a
cold start, or a working set that empties).  The solver keeps a thin QR
factor Q R of L^-1 N_W, where the columns of N_W are the working-set rows,
together with R^-1, in preallocated n x n buffers.  A row that enters
appends one column to Q (its re-orthogonalized component outside Q) and to
R^-1, in O(n k) for k active rows, so the multiplier step and the equality
solve are products with Q and R^-1.  A dropped row, which is rare, and a
warm set re-factor from scratch.  The bounds are never stored as rows: the
violation check reads z against lb and ub, and a bound's row of L^-1 N_W is
a gathered row of L^-1.

The controller's QPs have up to 80 variables and 320 candidate rows
(scheme A: 160 condensed state rows, 160 input bounds).  At these sizes a
mat-vec costs about as much as its call, so they use the ``ndarray.dot``
method, the cheapest entry point (``@`` costs about twice as much per call).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class WorkingSet:
    """Ordered ids of the constraints treated as equalities."""

    active: tuple[int, ...] = ()


@dataclass
class DenseQp:
    """Strictly convex dense QP; rows encode Crows z + cvec <= 0.

    H must be symmetric positive definite.  ``solve_qp`` checks that only
    when it factors H, that is when a row enters the working set or a warm
    set is given (``LinAlgError``); a solve whose unconstrained minimizer
    violates no row accepts an indefinite H.  ``condense`` returns its
    reduced QP in this form, and ``C``/``c`` read the rows under the names
    of the condensing equations.
    """

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

    @property
    def C(self) -> np.ndarray:
        return self.Crows

    @property
    def c(self) -> np.ndarray:
        return self.cvec


@dataclass
class QpSolution:
    z: np.ndarray
    lam_rows: np.ndarray
    lam_lb: np.ndarray
    lam_ub: np.ndarray
    ws: WorkingSet
    iterations: int
    status: str  # "solved" | "max-iterations" | "infeasible-detected"
    start: str   # "warm" | "cold": whether the warm working set was used


def _inv_lower(L):
    """Inverse of the lower-triangular L by forward substitution in 16-row
    blocks: a third of the flops of np.linalg.inv, which takes L as general."""
    X = np.zeros_like(L)
    for i in range(0, len(L), 16):
        D = np.linalg.inv(L[i:i + 16, i:i + 16])
        X[i:i + 16, i:i + 16] = D
        X[i:i + 16, :i] = -D @ (L[i:i + 16, :i] @ X[:i, :i])
    return X


def solve_qp(qp: DenseQp, warm: WorkingSet | None = None, tol: float = 1e-8,
             max_iter: int | None = None) -> QpSolution:
    """Goldfarb-Idnani dual active-set iteration with deterministic tie-breaking.

    Added row: most violated by more than max(tol, 1e-9), ties by lowest id.
    Dropped row: first to reach a zero multiplier, ties by the earliest
    working-set entry.  A warm set with dependent rows is discarded (cold
    start).  A solved QP is re-solved on its final working set, so warm and
    cold answers agree to rounding.  On any other exit z and the multipliers
    are the last dual iterate, including the partial multiplier of the row
    being added: H z + g + A'lam = 0 and lam >= 0.
    """
    n, m = qp.n, qp.m
    if max_iter is None:
        max_iter = 100 * (n + m)
    feas_tol = max(tol, 1e-9)
    b = np.concatenate([-qp.cvec, qp.ub, -qp.lb])  # row i reads a_i'z <= b_i
    # L^-1 N_W = Q R with k = len(W): Q in the first k columns, R^-1 in the leading k x k block
    Q, Ri = np.empty((n, n)), np.empty((n, n))
    J = w = None  # H^-1 = J J', w = J'g: formed once a row is held as an equality

    @cache
    def z_free():  # the unconstrained minimizer, solved for only where it is used
        return np.linalg.solve(qp.H, -qp.g)

    def inverse_factor():
        nonlocal J, w
        if J is None:
            J = _inv_lower(np.linalg.cholesky(qp.H)).T
            w = J.T.dot(qp.g)
        return J

    def a_dot(i, X):
        """a_i'X for row id i: Crows[i] @ X, or the gathered row +-X[j] of a bound on z_j."""
        if i < m:
            return qp.Crows[i].dot(X)
        return X[i - m] if i < m + n else -X[i - m - n]

    def refactor():
        """Thin QR of L^-1 N_W from scratch, and R^-1; False, with R^-1 not formed,
        if the rows of W are dependent.  A row enters only when it passes this
        test, and dropping rows keeps it passed, so only a warm set can fail."""
        if not W:
            return True
        k, J = len(W), inverse_factor()
        Q[:, :k], R = np.linalg.qr(np.array([a_dot(i, J) for i in W]).T)
        if k > n or not np.all(np.abs(np.diag(R)) > 1e-10 * np.linalg.norm(R, axis=0)):
            return False
        Ri[:k, :k] = _inv_lower(R.T).T
        return True

    def eqp():
        """Minimizer and multipliers with the rows of W held as equalities."""
        if not W:
            return z_free(), np.zeros(0)
        k = len(W)
        y = Ri[:k, :k].T.dot(b[W]) + Q[:, :k].T.dot(w)  # = -R lam
        return -J.dot(w - Q[:, :k].dot(y)), -Ri[:k, :k].dot(y)

    def solution(status, it):
        lam_all = np.zeros(len(b))
        lam_all[W] = lam
        if p >= 0:
            lam_all[p] = u
        return QpSolution(z=z, lam_rows=lam_all[:m], lam_lb=lam_all[m + n:],
                          lam_ub=lam_all[m:m + n], ws=WorkingSet(tuple(W)), iterations=it,
                          status=status, start=start)

    start = "cold"
    W = [] if warm is None else [i for i in warm.active
                                 if 0 <= i < len(b) and (i < m or np.isfinite(b[i]))]
    if W:
        if refactor():
            start = "warm"
            z, lam = eqp()
            while np.any(lam < 0.0):
                W = [i for i, lam_i in zip(W, lam) if lam_i >= 0.0]
                refactor()
                z, lam = eqp()
        else:
            W = []
    if start == "cold":
        z, lam = z_free(), np.zeros(0)

    p, u = -1, 0.0  # row being added and its multiplier
    for it in range(1, max_iter + 1):
        if p < 0:
            viol = np.concatenate([qp.Crows.dot(z) + qp.cvec, z - qp.ub, qp.lb - z])
            viol[W] = -np.inf
            worst = int(np.argmax(viol))
            if viol[worst] <= feas_tol:
                z, lam = eqp()
                return solution("solved", it)
            p, u = worst, 0.0
        # as row p's multiplier grows by t, z moves by -t J vperp and lam by t dlam
        J, k = inverse_factor(), len(W)
        Qk, Rik = Q[:, :k], Ri[:k, :k]
        v = a_dot(p, J)
        Qv = Qk.T.dot(v)
        vperp = v - Qk.dot(Qv)
        dlam = -Rik.dot(Qv)
        # rates within rounding of zero must not block: they would give huge dual steps
        blocking = np.flatnonzero(dlam < -1e-12 * np.abs(dlam).max(initial=0.0))
        ratios = lam[blocking] / -dlam[blocking]
        t_dual = ratios.min(initial=np.inf)
        t_full, vv = np.inf, vperp.dot(vperp)
        if vv > 1e-20 * v.dot(v):
            t_full = (a_dot(p, z) - b[p]) / vv
        elif t_dual == np.inf:
            return solution("infeasible-detected", it)
        t = min(t_full, t_dual)
        if t_full < np.inf:
            z = z - t * J.dot(vperp)
        lam = np.maximum(lam + t * dlam, 0.0)
        u += t
        if t_full <= t_dual:
            # append column k: Q gains vperp / |vperp|, re-orthogonalized once
            # (CGS2), and R gains r = [Qv; |vperp|], so R^-1 gains -R^-1 r / |vperp|
            c = Qk.T.dot(vperp)
            vperp -= Qk.dot(c)
            rho = np.sqrt(vperp.dot(vperp))
            Q[:, k] = vperp / rho
            Ri[:k, k] = Rik.dot(Qv + c) / -rho
            Ri[k, :k], Ri[k, k] = 0.0, 1.0 / rho
            W.append(p)
            lam = np.append(lam, u)
            p = -1
        else:
            j = int(blocking[np.argmin(ratios)])
            W.pop(j)
            lam = np.delete(lam, j)
            refactor()

    return solution("max-iterations", max_iter)
