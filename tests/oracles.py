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


def pendulum_jacobians_quotient_rule(x, u, params):
    """Cart-pole (d f/d x, d f/d u) by the quotient rule, term by term.

    The textbook form of ``model.pendulum_jacobians``, which shares its
    subexpressions instead: the accelerations n2/den and n3/(l den) are
    differentiated as (dn den - n dden) / den^2.
    """
    _, theta, _, theta_dot = x
    f = u[0] if np.ndim(u) else u
    s, c = np.sin(theta), np.cos(theta)
    m1, m2, l, g = params.m1, params.m2, params.l, params.g
    den = m2 + m1 - m1 * c * c
    dden = 2.0 * m1 * s * c

    n2 = -m1 * l * s * (theta_dot * theta_dot) + m1 * g * c * s + f
    dn2_dth = -m1 * l * c * (theta_dot * theta_dot) + m1 * g * (c * c - s * s)
    n3 = f * c - m1 * l * c * s * (theta_dot * theta_dot) + (m2 + m1) * g * s
    dn3_dth = -f * s - m1 * l * (c * c - s * s) * (theta_dot * theta_dot) + (m2 + m1) * g * c

    stack = np.shape(theta)
    A = np.zeros(stack + (4, 4))
    A[..., 0, 2] = 1.0
    A[..., 1, 3] = 1.0
    A[..., 2, 1] = (dn2_dth * den - n2 * dden) / (den * den)
    A[..., 2, 3] = -2.0 * m1 * l * s * theta_dot / den
    A[..., 3, 1] = (dn3_dth * den - n3 * dden) / (l * (den * den))
    A[..., 3, 3] = -2.0 * m1 * c * s * theta_dot / den

    B = np.zeros(stack + (4, 1))
    B[..., 2, 0] = 1.0 / den
    B[..., 3, 0] = c / (l * den)
    return A, B


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


def dense_rk4_step(rhs, jac, x, u, h):
    """One RK4 step with sensitivities chained through dense stage Jacobians.

    The reference of ``integrator.integrate_interval``'s tangent pass: stage
    i forms d k_i/d x = J_i (I + c h d k_{i-1}/d x) and the like for u from
    the full Jacobians of every stage, with x (nx,) or columns x (nx, n),
    u (nu,)/(nu, n) and h scalar/(n,) as there.  The states take the
    same IEEE operations as the package's, so x_next agrees bit for bit.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h2, h6 = 0.5 * h, h / 6.0
    hm = np.asarray(h)[..., None, None]  # step lengths against matrix stacks
    I = np.eye(x.shape[0])
    k1 = rhs(x, u)
    J1x, J1u = jac(x, u)
    k2 = rhs(x + h2 * k1, u)
    J2x, J2u = jac(x + h2 * k1, u)
    k2x, k2u = J2x @ (I + 0.5 * hm * J1x), J2x @ (0.5 * hm * J1u) + J2u
    k3 = rhs(x + h2 * k2, u)
    J3x, J3u = jac(x + h2 * k2, u)
    k3x, k3u = J3x @ (I + 0.5 * hm * k2x), J3x @ (0.5 * hm * k2u) + J3u
    k4 = rhs(x + h * k3, u)
    J4x, J4u = jac(x + h * k3, u)
    k4x, k4u = J4x @ (I + hm * k3x), J4x @ (hm * k3u) + J4u
    return (x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            I + hm / 6.0 * (J1x + 2.0 * k2x + 2.0 * k3x + k4x),
            hm / 6.0 * (J1u + 2.0 * k2u + 2.0 * k3u + k4u))


def seeded_pendulum_states(seed, n):
    """n cart-pole states; the first five have theta = -pi, -pi/2, 0, pi/2 and pi."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform([-1.0, -4.0, -2.0, -6.0], [1.0, 4.0, 2.0, 6.0], size=(n, 4))
    xs[:5, 1] = [-np.pi, -np.pi / 2, 0.0, np.pi / 2, np.pi]
    return xs


def numpy_rk4_state_step(rhs, x, u, h):
    """One RK4 step of a single state x (nx,) in array arithmetic.

    The reference of the single-state steps: ``integrator.rk4_state_step``
    (the generic ``OcpProblem.state_step``, the same array form) must agree
    with it bit for bit for any rhs, and the cart-pole float kernel
    ``model.pendulum_state_step`` when rhs is ``pendulum_rhs``.
    """
    k1 = rhs(x, u)
    k2 = rhs(x + 0.5 * h * k1, u)
    k3 = rhs(x + 0.5 * h * k2, u)
    k4 = rhs(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def numpy_forward_simulate(problem, bs, x0, us):
    """Node states (N+1, nx) of ``shooting.forward_simulate``, stepped as arrays."""
    xs = np.zeros((bs.N + 1, len(x0)))
    xs[0] = x0
    for k in range(bs.N):
        xs[k + 1] = numpy_rk4_state_step(problem.rhs, xs[k], us[bs.blocks[k]], problem.hs[k])
    return xs


def numpy_plant_step(rhs, x, u, Ts, substeps):
    """The state after ``harness._plant_step``'s sample, stepped as arrays."""
    h = Ts / substeps
    for _ in range(substeps):
        x = numpy_rk4_state_step(rhs, x, u, h)
    return x


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
        return np.array(Cx).reshape(-1, nx), np.array(c)

    As, Bs, ds = np.zeros((N, nx, nx)), np.zeros((N, nx, nu)), np.zeros((N, nx))
    Qs, Rs = np.zeros((N, nx, nx)), np.zeros((N, nu, nu))
    qs, rs = np.zeros((N, nx)), np.zeros((N, nu))
    Cx, c = [], []
    for k in range(N):
        x, u, w = traj.xs[k], traj.us[block[k]], problem.weight_scales[k]
        x_end, As[k], Bs[k] = rk4_step(problem.rhs, problem.jac, x, u, problem.intervals[k].h)
        ds[k] = x_end - traj.xs[k + 1]
        Qs[k], Rs[k] = w * cost.Q, w * cost.R
        qs[k], rs[k] = w * (cost.Q @ (x - cost.x_ref)), w * (cost.R @ (u - cost.u_ref))
        if k > 0:
            Cx_k, c_k = box_rows(x)
            Cx.append(Cx_k)
            c.append(c_k)
    CxN, cN = box_rows(traj.xs[N])
    return StageData(As=As, Bs=Bs, ds=ds, Qs=Qs, Rs=Rs, qs=qs, rs=rs,
                     QN=cost.QN.copy(), qN=cost.QN @ (traj.xs[N] - cost.x_ref),
                     Cx=np.array(Cx).reshape(N - 1, len(cN), nx),
                     c=np.array(c).reshape(N - 1, len(cN)), CxN=CxN, cN=cN,
                     dx0=np.asarray(x0_measured, dtype=float) - traj.xs[0],
                     du_lo=np.array([bounds.u_lo] * M) - traj.us,
                     du_hi=np.array([bounds.u_hi] * M) - traj.us)


def find_block(I, k):
    """Binary-search block lookup over the start-index vector."""
    return bisect_right(I, k) - 1


def node_rows(sd, k):
    """(Cx, c) of the state rows at node k in 1..N (k = N: the terminal rows)."""
    return (sd.Cx[k - 1], sd.c[k - 1]) if k < sd.N else (sd.CxN, sd.cN)


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
    Rt = np.zeros((N * nu, N * nu))
    rt = np.zeros(N * nu)
    for k in range(N):
        Rt[k * nu:(k + 1) * nu, k * nu:(k + 1) * nu] = sd.Rs[k]
        rt[k * nu:(k + 1) * nu] = sd.rs[k]

    Hc = Gm.T @ Qt @ Gm + Rt
    gc = Gm.T @ (Qt @ Lv + qt) + rt

    rows, consts = [], []
    for k in range(1, N + 1):
        Cx, c = node_rows(sd, k)
        rows.append(Cx @ Gm[(k - 1) * nx:k * nx, :])
        consts.append(c + Cx @ L[k - 1])
    Cc, cc = np.vstack(rows), np.concatenate(consts)
    return {"G": G, "L": L, "Hc": Hc, "gc": gc, "Cc": Cc, "cc": cc}


def flop_count(dims, bs):
    """Leading-order multiply count of the reduced-Hessian recursion.

    Returns N*M*(nx^2*nu + nx*nu^2), the Q and B products over all columns;
    the sweep adds 2*(N-1)*M*nx^2*nu more (its products [A_k' | I] Z[k] are
    counted in full, identity half included), so instrumented counts land
    within a small constant factor of the prediction.
    """
    return bs.N * bs.M * (dims.nx ** 2 * dims.nu + dims.nx * dims.nu ** 2)


def enumerate_qp(qp, tol=1e-9):
    """Brute-force QP solve: try every active-set combination.

    Solves the equality-constrained subproblem for each subset of the
    unified constraint rows, keeps candidates that are primal feasible with
    nonnegative multipliers, and returns the best (or None if no subset
    qualifies, i.e. the problem is infeasible).  Subsets holding both bounds
    of one variable are skipped: their rows e_i and -e_i make the KKT matrix
    singular, so they never yield a candidate.
    """
    n, m = qp.n, qp.m
    A_list, b_list, var = [], [], []
    for i in range(m):
        A_list.append(qp.Crows[i])
        b_list.append(-qp.cvec[i])
        var.append(-1)
    for i in range(n):
        if np.isfinite(qp.ub[i]):
            e = np.zeros(n)
            e[i] = 1.0
            A_list.append(e)
            b_list.append(qp.ub[i])
            var.append(i)
        if np.isfinite(qp.lb[i]):
            e = np.zeros(n)
            e[i] = -1.0
            A_list.append(e)
            b_list.append(-qp.lb[i])
            var.append(i)
    A = np.array(A_list).reshape(-1, n)
    b = np.array(b_list)
    mt = len(b)
    best, best_obj = None, np.inf
    for k in range(0, min(n, mt) + 1):
        for subset in itertools.combinations(range(mt), k):
            held = [var[r] for r in subset if var[r] >= 0]
            if len(set(held)) < len(held):
                continue
            As_ = A[list(subset)]
            bs_ = b[list(subset)]
            K = np.zeros((n + k, n + k))
            K[:n, :n] = qp.H
            K[:n, n:] = As_.T
            K[n:, :n] = As_
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


# --- stage data the loop oracles below are checked on -------------------------

def perturbed_scheme_stage_data(scheme):
    """Scheme A/B/C controller and its stage data at a perturbed trajectory."""
    from blockmpc.harness import SchemeConfig, build_controller
    from blockmpc.shooting import Trajectory, evaluate

    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.2, -0.1])
    traj = ctrl.initial_state(x0).traj
    rng = np.random.default_rng(4)
    traj = Trajectory(xs=traj.xs + 0.05 * rng.standard_normal(traj.xs.shape),
                      us=traj.us + rng.standard_normal(traj.us.shape))
    return ctrl.bs, evaluate(ctrl.problem, ctrl.bs, traj, x0 + 0.01)


def ragged_stage_data(rng, lengths, nx, nu, nc=1, ncN=2):
    """Synthetic stage data whose stage and terminal row counts differ."""
    from blockmpc.blocking import from_block_lengths
    from blockmpc.harness import synthetic_stage_data

    bs = from_block_lengths(lengths)
    return bs, synthetic_stage_data(rng, bs.N, nx, nu, M=bs.M, nc=nc, ncN=ncN)


# --- per-column / per-node loops of the tailored condensing and KKT report ----
#
# These are the loop forms of the batched routines in ``condensing``, and the
# stage-wise form of ``rti``'s KKT report (which reads the condensed QP): one
# 4x4-sized product per Python iteration, written out stage by stage.  The
# batched and condensed routes must reproduce them to rounding.

def ghat_blocks(Ghat, nu):
    """``condensing``'s Ghat (N, nx, M*nu) viewed as (N, M, nx, nu), the loop oracles' layout."""
    N, nx, Mnu = Ghat.shape
    return Ghat.reshape(N, nx, Mnu // nu, nu).transpose(0, 2, 1, 3)


def loop_Ghat(sd, bs):
    """Blocked sensitivity chain, one block product per (row, column): (N, M, nx, nu)."""
    N, M, I = bs.N, bs.M, bs.I
    Gh = np.zeros((N, M, sd.nx, sd.nu))
    for i in range(M):
        Gh[I[i], i] = sd.Bs[I[i]]
        for j in range(I[i] + 1, N):
            Gh[j, i] = sd.As[j] @ Gh[j - 1, i]
            if j < I[i + 1]:
                Gh[j, i] += sd.Bs[j]
    return Gh


def loop_block_transitions(sd, bs):
    """Block transitions Psi_k = A_k ... A_{I[b]} of node k in block b, one node at a time."""
    Psi = np.zeros((sd.N, sd.nx, sd.nx))
    for k in range(sd.N):
        first = k == bs.I[find_block(bs.I, k)]
        Psi[k] = sd.As[k] @ (np.eye(sd.nx) if first else Psi[k - 1])
    return Psi


def loop_L(sd, dx0):
    """Residual chain L[k] = A_k L[k-1] + d_k with L[-1] = dx0, one node at a time."""
    L = np.zeros((sd.N, sd.nx))
    for k in range(sd.N):
        L[k] = sd.As[k] @ (L[k - 1] if k else dx0) + sd.ds[k]
    return L


def loop_Phi(sd):
    """State transition products Phi_k = A_k ... A_0, one node at a time: (N, nx, nx)."""
    Phi = np.zeros((sd.N, sd.nx, sd.nx))
    for k in range(sd.N):
        Phi[k] = sd.As[k] @ (Phi[k - 1] if k else np.eye(sd.nx))
    return Phi


def loop_Hhat(sd, bs, Ghat):
    """Reduced Hessian: per-column backward sweep, row accumulation, mirror."""
    N, M, I = bs.N, bs.M, bs.I
    nu = sd.nu
    Htmp = np.zeros((N, M, nu, nu))
    for i in range(M):
        W = sd.QN @ Ghat[N - 1, i]
        for k in range(N - 1, I[i], -1):
            Htmp[k, i] = sd.Bs[k].T @ W
            W = sd.Qs[k] @ Ghat[k - 1, i] + sd.As[k].T @ W
        Htmp[I[i], i] = sd.Bs[I[i]].T @ W

    Hh = np.zeros((M * nu, M * nu))
    kblk = 0
    Rtmp = np.zeros((nu, nu))
    for i in range(N):
        Hh[kblk * nu:(kblk + 1) * nu, :] += np.transpose(Htmp[i], (1, 0, 2)).reshape(nu, M * nu)
        Rtmp = Rtmp + sd.Rs[i]
        if i + 1 == I[kblk + 1]:
            Hh[kblk * nu:(kblk + 1) * nu, kblk * nu:(kblk + 1) * nu] += Rtmp
            kblk += 1
            Rtmp = np.zeros((nu, nu))
    for b in range(M):
        for j in range(b + 1, M):
            Hh[b * nu:(b + 1) * nu, j * nu:(j + 1) * nu] = \
                Hh[j * nu:(j + 1) * nu, b * nu:(b + 1) * nu].T
    return Hh


def column_Hhat(sd, bs, Ghat):
    """Reduced Hessian by one backward sweep per block column.

    Column i runs W_k = Q_k Ghat[k-1,i] + A_k' W_{k+1} from W_N = QN Ghat[N-1,i]
    down to k = I[i]+1, one product per node; its stages k >= I[i] give
    B_k' W_{k+1} to their row block, the summed R of each block joins the
    diagonal and the upper block triangle is mirrored.
    """
    from blockmpc.blocking import block_sums

    N, M, I = bs.N, bs.M, bs.I
    nx, nu = sd.nx, sd.nu
    BT = np.swapaxes(sd.Bs, 1, 2)
    AT = [A.T for A in sd.As]
    Htmp = np.zeros((N, M, nu, nu))
    for i in range(M):
        s = I[i]
        Ws = np.empty((N - s, nx, nu))  # W_{s+1}, ..., W_N
        Ws[:-1] = sd.Qs[s + 1:] @ Ghat[s:N - 1, i]
        Ws[-1] = sd.QN @ Ghat[N - 1, i]
        W = list(Ws)
        for k in range(N - 1, s, -1):
            W[k - s - 1] += AT[k].dot(W[k - s])
        Htmp[s:, i] = BT[s:] @ Ws

    H4 = block_sums(Htmp, bs)
    H4[np.diag_indices(M)] += block_sums(sd.Rs, bs)
    upper = np.triu(np.ones((M, M), dtype=bool), 1)
    H4[upper] = np.swapaxes(H4, 0, 1)[upper].swapaxes(1, 2)
    return H4.transpose(0, 2, 1, 3).reshape(M * nu, M * nu)


def loop_ghat(sd, bs, L):
    """Reduced gradient by one backward costate sweep, stage by stage."""
    N, M = bs.N, bs.M
    block = [find_block(bs.I, k) for k in range(N)]
    g = np.zeros((M, sd.nu))
    w = sd.qN + sd.QN @ L[N - 1]
    for k in range(N - 1, 0, -1):
        g[block[k]] += sd.rs[k] + sd.Bs[k].T @ w
        w = sd.qs[k] + sd.Qs[k] @ L[k - 1] + sd.As[k].T @ w
    g[0] += sd.rs[0] + sd.Bs[0].T @ w
    return g.reshape(M * sd.nu)


def loop_condense_constraints(sd, bs, Ghat, L):
    """Condensed rows node by node and block column by block column."""
    N, M, nu = bs.N, bs.M, sd.nu
    rows, consts = [np.zeros((0, M * nu))], [np.zeros(0)]
    for k in range(1, N + 1):
        Cx, c = node_rows(sd, k)
        row = np.zeros((Cx.shape[0], M * nu))
        for j in range(M):
            if bs.I[j] < k:
                row[:, j * nu:(j + 1) * nu] = Cx @ Ghat[k - 1, j]
        rows.append(row)
        consts.append(c + Cx @ L[k - 1])
    return np.vstack(rows), np.concatenate(consts)


def loop_stationarity_blocks(sd, bs, dxs, du, mu, lam_lb, lam_ub):
    """Blocked Lagrangian gradient by the adjoint recursion; ``mu`` is one array per node."""
    N, M, nu = bs.N, bs.M, sd.nu
    du = np.asarray(du, dtype=float).reshape(M, nu)
    g_stat = (lam_ub - lam_lb).reshape(M, nu).copy()
    lam_next = sd.qN + sd.QN @ dxs[N] + node_rows(sd, N)[0].T @ mu[N]
    for k in range(N - 1, -1, -1):
        j = find_block(bs.I, k)
        g_stat[j] += sd.rs[k] + sd.Rs[k] @ du[j] + sd.Bs[k].T @ lam_next
        lam_next = sd.qs[k] + sd.Qs[k] @ dxs[k] + sd.As[k].T @ lam_next
        if k > 0:  # node 0 carries no rows
            lam_next += node_rows(sd, k)[0].T @ mu[k]
    return g_stat


def loop_kkt_parts(sd, bs, dxs, du, lam_rows, lam_lb, lam_ub):
    """(blocked stationarity vector, eq_residual, ineq_violation), multipliers split by node."""
    N, M, nu = bs.N, bs.M, sd.nu
    du = np.asarray(du, dtype=float).reshape(M, nu)
    ends = np.cumsum([0] + [len(node_rows(sd, k)[1]) for k in range(1, N + 1)])
    mu = [None] + [lam_rows[a:b] for a, b in zip(ends[:-1], ends[1:])]
    g_stat = loop_stationarity_blocks(sd, bs, dxs, du, mu, lam_lb, lam_ub)
    eq = max(np.abs(sd.ds).max(initial=0.0), np.abs(sd.dx0 - dxs[0]).max(initial=0.0))
    viol = 0.0
    for k in range(1, N + 1):
        Cx, c = node_rows(sd, k)
        if Cx.shape[0]:
            viol = max(viol, (Cx @ dxs[k] + c).max())
    viol = max(viol, (du - sd.du_hi.reshape(M, nu)).max(), (sd.du_lo.reshape(M, nu) - du).max())
    return g_stat, eq, viol
