"""Independent reference implementations used as test oracles.

Everything here is written against the mathematical definitions (finite
differences, truncated Taylor series, explicit matrices, brute-force
enumeration, Riccati recursion) and deliberately avoids the recursions the
package uses, so agreement is evidence rather than tautology.
"""

import itertools
from bisect import bisect_right

import numpy as np


def fd_state_jacobian(f, x, u, eps=1e-6):
    nx = len(x)
    J = np.zeros((nx, nx))
    for i in range(nx):
        e = np.zeros(nx)
        e[i] = eps
        J[:, i] = (np.asarray(f(x + e, u)) - np.asarray(f(x - e, u))) / (2 * eps)
    return J


def fd_input_jacobian(f, x, u, eps=1e-6):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    nx, nu = len(x), len(u)
    J = np.zeros((nx, nu))
    for i in range(nu):
        e = np.zeros(nu)
        e[i] = eps
        J[:, i] = (np.asarray(f(x, u + e)) - np.asarray(f(x, u - e))) / (2 * eps)
    return J


def rk4_linear_closed_form(Ac, Bc, h):
    """Exact discrete matrices of the RK4 map for xdot = Ac x + Bc u.

    A = sum_{k=0..4} (h Ac)^k / k!,  B = h * (sum_{k=0..3} (h Ac)^k / (k+1)!) Bc.
    """
    Ac = np.atleast_2d(Ac)
    Bc = np.atleast_2d(Bc)
    nx = Ac.shape[0]
    Ad = np.eye(nx)
    pw = np.eye(nx)
    fact = 1.0
    for k in range(1, 5):
        pw = pw @ (h * Ac)
        fact *= k
        Ad = Ad + pw / fact
    S = np.zeros((nx, nx))
    pw = np.eye(nx)
    fact = 1.0
    for k in range(4):
        fact *= (k + 1)
        S = S + pw / fact
        pw = pw @ (h * Ac)
    Bd = h * (S @ Bc)
    return Ad, Bd


def loop_evaluate(problem, bs, traj, x0_measured):
    """Shooting linearization one interval at a time, with point-wise RK4 steps.

    Cost terms and box rows are written out from their definitions per node,
    so the batched ``shooting.evaluate`` is checked against an independent
    per-interval construction of every ``StageData`` field.
    """
    from blockmpc.integrator import rk4_step
    from blockmpc.shooting import StageData

    N, M = bs.N, bs.M
    nx, nu = problem.dims.nx, problem.dims.nu
    cost, bounds = problem.cost, problem.bounds
    block = [find_block(bs.I, k) for k in range(N)]

    def box_rows(x):
        Cx, c = [], []
        for i in range(nx):
            if np.isfinite(bounds.x_hi[i]):
                Cx.append(np.eye(nx)[i])
                c.append(x[i] - bounds.x_hi[i])
            if np.isfinite(bounds.x_lo[i]):
                Cx.append(-np.eye(nx)[i])
                c.append(bounds.x_lo[i] - x[i])
        return np.array(Cx).reshape(-1, nx), np.zeros((len(c), nu)), np.array(c)

    As, Bs, ds = np.zeros((N, nx, nx)), np.zeros((N, nx, nu)), np.zeros((N, nx))
    Qs, Ss, Rs = np.zeros((N, nx, nx)), np.zeros((N, nx, nu)), np.zeros((N, nu, nu))
    qs, rs = np.zeros((N, nx)), np.zeros((N, nu))
    Cxs, Cus, cs = [np.zeros((0, nx))], [np.zeros((0, nu))], [np.zeros(0)]
    for k in range(N):
        x, u, w = traj.xs[k], traj.us[block[k]], problem.weight_scales[k]
        x_end, As[k], Bs[k] = rk4_step(problem.rhs, problem.jac, x, u, problem.intervals[k].h)
        ds[k] = x_end - traj.xs[k + 1]
        Qs[k], Rs[k] = w * cost.Q, w * cost.R
        qs[k], rs[k] = w * (cost.Q @ (x - cost.x_ref)), w * (cost.R @ (u - cost.u_ref))
        if k > 0:
            for lst, item in zip((Cxs, Cus, cs), box_rows(x)):
                lst.append(item)
    CN, _, cN = box_rows(traj.xs[N])
    return StageData(As=As, Bs=Bs, ds=ds, Qs=Qs, Ss=Ss, Rs=Rs, qs=qs, rs=rs,
                     Cxs=Cxs, Cus=Cus, cs=cs,
                     QN=cost.QN.copy(), qN=cost.QN @ (traj.xs[N] - cost.x_ref), CN=CN, cN=cN,
                     dx0=np.asarray(x0_measured, dtype=float) - traj.xs[0],
                     du_lo=np.array([bounds.u_lo] * M) - traj.us,
                     du_hi=np.array([bounds.u_hi] * M) - traj.us)


def find_block(I, k):
    """Binary-search block lookup over the start-index vector."""
    return bisect_right(I, k) - 1


def kron_T(lengths, nu):
    """T = T_b (x) I_nu with T_b the 0/1 interval-to-block selector."""
    N = sum(lengths)
    M = len(lengths)
    Tb = np.zeros((N, M))
    k = 0
    for j, n in enumerate(lengths):
        Tb[k:k + n, j] = 1.0
        k += n
    return np.kron(Tb, np.eye(nu))


def dense_condense(sd):
    """Condense by explicit big-matrix products (O(N^3), small N only).

    Builds the full lower-triangular sensitivity matrix column by column
    from its definition G[k,j] = A_k ... A_{j+1} B_j, then forms the
    condensed Hessian/gradient/constraints of the unblocked problem by
    stacked matrix algebra.  Returns dict with G (N,N,nx,nu), L, Hc, gc,
    Cc, cc.
    """
    N, nx, nu = sd.N, sd.nx, sd.nu
    G = np.zeros((N, N, nx, nu))
    for j in range(N):
        for k in range(j, N):
            blk = sd.Bs[j]
            for m in range(j + 1, k + 1):
                blk = sd.As[m] @ blk
            G[k, j] = blk
    L = np.zeros((N, nx))
    acc = sd.dx0.copy()
    for k in range(N):
        acc = sd.As[k] @ acc + sd.ds[k]
        L[k] = acc

    Gm = G.transpose(0, 2, 1, 3).reshape(N * nx, N * nu)
    Lv = L.reshape(N * nx)
    Qt = np.zeros((N * nx, N * nx))
    qt = np.zeros(N * nx)
    for k in range(1, N):
        Qt[(k - 1) * nx:k * nx, (k - 1) * nx:k * nx] = sd.Qs[k]
        qt[(k - 1) * nx:k * nx] = sd.qs[k]
    Qt[(N - 1) * nx:, (N - 1) * nx:] = sd.QN
    qt[(N - 1) * nx:] = sd.qN
    St = np.zeros((N * nx, N * nu))
    for k in range(1, N):
        St[(k - 1) * nx:k * nx, k * nu:(k + 1) * nu] = sd.Ss[k]
    Rt = np.zeros((N * nu, N * nu))
    rt = np.zeros(N * nu)
    for k in range(N):
        Rt[k * nu:(k + 1) * nu, k * nu:(k + 1) * nu] = sd.Rs[k]
        rt[k * nu:(k + 1) * nu] = sd.rs[k]

    Hc = Gm.T @ Qt @ Gm + Gm.T @ St + St.T @ Gm + Rt
    gc = Gm.T @ (Qt @ Lv + qt) + St.T @ Lv + rt
    gc[:nu] += sd.Ss[0].T @ sd.dx0

    rows, consts = [], []
    for k in range(N):
        Cx, Cu, c = sd.Cxs[k], sd.Cus[k], sd.cs[k]
        if Cx.shape[0] == 0:
            continue
        row = np.zeros((Cx.shape[0], N * nu))
        if k == 0:
            const = c + Cx @ sd.dx0
        else:
            row[:, :] = Cx @ Gm[(k - 1) * nx:k * nx, :]
            const = c + Cx @ L[k - 1]
        row[:, k * nu:(k + 1) * nu] += Cu
        rows.append(row)
        consts.append(const)
    if sd.CN.shape[0]:
        rows.append(sd.CN @ Gm[(N - 1) * nx:, :])
        consts.append(sd.cN + sd.CN @ L[N - 1])
    Cc = np.vstack(rows) if rows else np.zeros((0, N * nu))
    cc = np.concatenate(consts) if consts else np.zeros(0)
    return {"G": G, "L": L, "Hc": Hc, "gc": gc, "Cc": Cc, "cc": cc}


def enumerate_qp(qp, tol=1e-9):
    """Brute-force QP solve: try every active-set combination.

    Solves the equality-constrained subproblem for each subset of the
    unified constraint rows, keeps candidates that are primal feasible with
    nonnegative multipliers, and returns the best (or None if no subset
    qualifies, i.e. the problem is infeasible).
    """
    n, m = qp.n, qp.m
    A_list, b_list = [], []
    for i in range(m):
        A_list.append(qp.Crows[i])
        b_list.append(-qp.cvec[i])
    for i in range(n):
        if np.isfinite(qp.ub[i]):
            e = np.zeros(n)
            e[i] = 1.0
            A_list.append(e)
            b_list.append(qp.ub[i])
        if np.isfinite(qp.lb[i]):
            e = np.zeros(n)
            e[i] = -1.0
            A_list.append(e)
            b_list.append(-qp.lb[i])
    A = np.array(A_list).reshape(-1, n)
    b = np.array(b_list)
    mt = len(b)
    best, best_obj = None, np.inf
    for k in range(0, min(n, mt) + 1):
        for subset in itertools.combinations(range(mt), k):
            As_ = A[list(subset)]
            bs_ = b[list(subset)]
            K = np.block([[qp.H, As_.T], [As_, np.zeros((k, k))]])
            try:
                sol = np.linalg.solve(K, np.concatenate([-qp.g, bs_]))
            except np.linalg.LinAlgError:
                continue
            z, lam = sol[:n], sol[n:]
            if np.any(A @ z - b > tol) or (k and lam.min() < -tol):
                continue
            obj = 0.5 * z @ qp.H @ z + qp.g @ z
            if obj < best_obj - 1e-12:
                best_obj, best = obj, z
    return best


def riccati_first_gain(Ad, Bd, Q, R, QN, N):
    """Finite-horizon LQR: backward Riccati recursion, returns K with u0 = -K x0."""
    P = QN.copy()
    K = None
    for _ in range(N):
        K = np.linalg.solve(R + Bd.T @ P @ Bd, Bd.T @ P @ Ad)
        P = Q + Ad.T @ P @ Ad - Ad.T @ P @ Bd @ K
    return K


def random_block_structure(rng, N):
    """Uniformly random partition of N intervals into contiguous blocks."""
    lengths = []
    left = N
    while left > 0:
        n = int(rng.integers(1, left + 1))
        lengths.append(n)
        left -= n
    return lengths
