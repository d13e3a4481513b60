"""State elimination for the blocked stage-wise QP.

Two routes produce the same dense reduced QP in the M*nu blocked input
steps:

* the tailored route works directly on the blocked stage data and costs
  O(N*M) block operations (the fast path used by the controller).  Python
  loops remain only for the recurrences, at most one product and one add
  per step: the forward chain (``compute_L``: Phi, the residual chain,
  Ghat's column 0 and every block's own rows, one product per node), the
  rows of Ghat's later columns after their blocks, and the Hhat sweep over
  all block columns at once.  Every other term is one stacked product that
  reads Ghat in place;
* the naive route condenses the unblocked problem in O(N^2) and then
  folds it with the explicit selection matrix T (kept as a test oracle
  and as the baseline for the complexity benchmark).

``FlopCounter`` instruments the multiply count of either route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import BlockStructure, block_sums, build_T
from .model import ProblemDims
from .qp_solver import DenseQp
from .shooting import StageData


class FlopCounter:
    """Accumulates the multiply count of instrumented block operations."""

    def __init__(self):
        self.mults = 0


def _mm(counter: FlopCounter | None, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B, stacked or not, counting its batch*a*b*c multiplies ((a x b) @ (b x c))."""
    out = A @ B
    if counter is not None:
        counter.mults += out.size * A.shape[-1]
    return out


@dataclass
class SensitivityChain:
    """Ghat[k] = d x_{k+1} / d u_hat and residual chain L with dx_{k+1} = Ghat[k] du + L[k]."""

    Ghat: np.ndarray  # (N, nx, M*nu), columns (block j, input); block j zero for k < I[j]
    L: np.ndarray     # (N, nx)


@dataclass
class ForwardChain:
    """The products of :func:`compute_L`; all but L are views of its buffer.

    P[k] = [Phi_k | L_d[k]] with Phi_k = A_k...A_0 and L_d the residual chain
    at dx0 = 0, so L = Phi dx0 + L_d; G0[k] = Ghat[k]'s block column 0, and
    own[k] = Ghat[k]'s block column blocks[k], the block interval k is in.
    """

    P: np.ndarray    # (N, nx, nx+1)
    G0: np.ndarray   # (N, nx, nu)
    own: np.ndarray  # (N, nx, nu)
    L: np.ndarray    # (N, nx)


def compute_L(sd: StageData, bs: BlockStructure,
              counter: FlopCounter | None = None) -> ForwardChain:
    """The forward chain: Phi, L_d, Ghat's column 0 and every block's own rows.

    Node k is one product X_k = [A_k | B_k | d_k] [X_{k-1}; S_k] with
    X_k = [Phi_k | L_d[k] | g0_k | c_k] and X_{-1} = [I | 0 | 0 | 0]; the
    constant selector rows S_k route B_k into c, and into g0 inside block 0
    only, and d_k into L_d.  c is the sensitivity to the current block's
    input.  It restarts from zero at the first node of each block longer
    than one interval: that node reads a copy of X_{k-1} with c zeroed, so
    the previous block's last row stays in the buffer.  A unit block takes
    B_k instead.  Node k writes row k+1 of an (N+1, nx+nu+1, nx+1+2nu)
    buffer whose selector rows are filled once, so the chain is N products
    plus a copy and a zeroing per restart, and L is the one stacked product
    P [dx0; 1].  Everything but L is independent of dx0.
    """
    N, nx, nu = sd.N, sd.nx, sd.nu
    g0, c = slice(nx + 1, nx + 1 + nu), slice(nx + 1 + nu, nx + 1 + 2 * nu)
    ABd = np.concatenate([sd.As, sd.Bs, sd.ds[:, :, None]], axis=2)  # [A_k | B_k | d_k]
    Y = np.zeros((N + 1, nx + nu + 1, c.stop))  # Y[k] = [X_{k-1}; S_k]
    Y[0, :nx, :nx] = np.eye(nx)
    Y[:, nx + nu, nx] = 1.0
    Y[:, nx:nx + nu, c] = np.eye(nu)
    Y[:bs.I[1], nx:nx + nu, g0] = np.eye(nu)
    ABds, Ys, outs = list(ABd), list(Y), list(Y[1:, :nx])
    restarts = bs.long_starts
    for k in range(N):
        y = Ys[k]
        if k in restarts:
            y = y.copy()
            y[:nx, c] = 0.0
        ABds[k].dot(y, out=outs[k])
    X = Y[1:, :nx]
    own = X[:, :, c]
    own[bs.unit_nodes] = sd.Bs[bs.unit_nodes]
    P = X[:, :, :nx + 1]
    L = P.dot(np.append(sd.dx0, 1.0))
    if counter is not None:
        counter.mults += N * nx * ((nx + nu + 1) * c.stop + nx + 1)
    return ForwardChain(P=P, G0=X[:, :, g0], own=own, L=L)


def compute_Ghat(sd: StageData, bs: BlockStructure, counter: FlopCounter | None = None,
                 chain: ForwardChain | None = None) -> np.ndarray:
    """Blocked sensitivity chain, O(N*M) block products.

    Column 0, and each column's rows inside its own block, are read from the
    forward chain (``chain``, or ``compute_L`` run here when it is None).  The
    loop is left with the rows after the block of columns 1..M-2, where a
    column only propagates through A: N - I[j+1] products for column j, made
    into one reused buffer.  Returns a C-contiguous (N, nx, M*nu) array, the
    layout every consumer reads.
    """
    if chain is None:
        chain = compute_L(sd, bs, counter)
    N, M, I = bs.N, bs.M, bs.I
    Gh = np.zeros((N, sd.nx, M, sd.nu))
    Gh[np.arange(N), :, bs.blocks] = chain.own
    Gh[:, :, 0] = chain.G0
    buf = np.empty((N, sd.nx, sd.nu))  # one column's rows after its block
    As, g = list(sd.As), list(buf)
    for i in range(1, M - 1):  # the last block ends at N
        e = I[i + 1]
        As[e].dot(chain.own[e - 1], out=g[e])
        for k in range(e + 1, N):
            As[k].dot(g[k - 1], out=g[k])
        if counter is not None:  # the recurrence's products, made one at a time
            counter.mults += (N - e) * sd.nx * sd.nx * sd.nu
        Gh[e:, :, i] = buf[e:]
    return Gh.reshape(N, sd.nx, M * sd.nu)


def compute_Hhat(sd: StageData, bs: BlockStructure, Ghat: np.ndarray,
                 counter: FlopCounter | None = None) -> np.ndarray:
    """Reduced Hessian in O(N*M) block products.

    One backward sweep W_k = Q_k Ghat[k-1] + A_k' W_{k+1} (W_N = QN Ghat[N-1])
    carries all block columns at once, stored transposed: one product per
    node.  Stage k adds B_k' W_{k+1} to row block blk[k]; the summed R of
    each block joins the diagonal, and the strict upper block triangle is
    mirrored from the lower.  The sweep also runs through the columns
    i > blk[k] that start after stage k, but what it adds there lands in
    that upper triangle, which the mirror overwrites.
    """
    N, M = bs.N, bs.M
    nx, nu = sd.nx, sd.nu
    GT = Ghat.transpose(0, 2, 1)  # Ghat[k]'
    WT = np.empty((N, M * nu, nx))  # W_1', ..., W_N'
    WT[:-1] = _mm(counter, GT[:-1], np.swapaxes(sd.Qs[1:], 1, 2))
    WT[-1] = _mm(counter, GT[-1], sd.QN.T)
    W, As = list(WT), list(sd.As)
    for k in range(N - 1, 0, -1):
        W[k - 1] += W[k].dot(As[k])
    if counter is not None:  # the sweep's products, made one node at a time
        counter.mults += (N - 1) * M * nu * nx * nx
    BW = _mm(counter, WT, sd.Bs).reshape(N, M, nu, nu).swapaxes(2, 3)  # B_k' W_{k+1}
    H4 = block_sums(BW, bs.sum_rows)  # (row block, column block, nu, nu)
    H4[np.diag_indices(M)] += block_sums(sd.Rs, bs.sum_rows)
    H4[bs.upper] = np.swapaxes(H4, 0, 1)[bs.upper].swapaxes(1, 2)
    return H4.transpose(0, 2, 1, 3).reshape(M * nu, M * nu)


def compute_ghat(sd: StageData, bs: BlockStructure, Ghat: np.ndarray,
                 L: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Reduced gradient at the zero input step, one stacked product with Ghat.

    With v_k = q_k + Q_k L[k-1] the state gradient at node k (qN, QN at
    k = N), block j collects its columns of sum_k Ghat[k-1]' v_k plus the r_k
    of its own stages, summed from the last stage of the block down to the first.
    """
    N, M, nx, nu = bs.N, bs.M, sd.nx, sd.nu
    if Ghat.shape != (N, nx, M * nu):
        raise ValueError("Ghat inconsistent with block structure")
    vs = np.empty((N, nx))  # v_1, ..., v_N
    vs[:-1] = sd.qs[1:] + _mm(counter, sd.Qs[1:], L[:-1, :, None])[:, :, 0]
    vs[-1] = sd.qN + _mm(counter, sd.QN, L[N - 1])
    own = block_sums(sd.rs, bs.sum_rows_descending).reshape(M * nu)
    Gm = Ghat.reshape(N * nx, M * nu)  # rows (k, x), columns (j, u)
    return own + _mm(counter, vs.reshape(N * nx), Gm)


def condense_constraints(sd: StageData, bs: BlockStructure, Ghat: np.ndarray,
                         L: np.ndarray, counter: FlopCounter | None = None):
    """Condense the state rows and fold input boxes into simple bounds.

    A row Cx_k dx_k + c_k <= 0 at node k in 1..N becomes Cx_k Ghat[k-1],
    with constant c_k + Cx_k L[k-1]; dx0 enters only through L.  The stage
    rows are one batched product ``sd.Cx @ Ghat[:-1]`` and the terminal rows
    one ``sd.CxN @ Ghat[-1]``; block j of Ghat[k-1] is zero for I[j] >= k,
    which makes the blocks right of a row's node exact zeros.  Returns
    (C, c, lb, ub), rows node by node, terminal last.
    """
    M, nu = bs.M, sd.nu
    C = np.concatenate([_mm(counter, sd.Cx, Ghat[:-1]).reshape(-1, M * nu),
                        _mm(counter, sd.CxN, Ghat[-1])])
    const = np.concatenate([(sd.c + _mm(counter, sd.Cx, L[:-1, :, None])[:, :, 0]).reshape(-1),
                            sd.cN + _mm(counter, sd.CxN, L[-1])])
    lb = sd.du_lo.reshape(M * nu).copy()
    ub = sd.du_hi.reshape(M * nu).copy()
    return C, const, lb, ub


def condense(sd: StageData, bs: BlockStructure,
             counter: FlopCounter | None = None):
    """Tailored pipeline: stage data -> (DenseQp, SensitivityChain).

    The QP is the one ``solve_qp`` takes, over the M*nu blocked input steps;
    its general rows condense the state rows node by node, terminal rows last.
    """
    fwd = compute_L(sd, bs, counter)
    Ghat = compute_Ghat(sd, bs, counter, chain=fwd)
    L = fwd.L
    H = compute_Hhat(sd, bs, Ghat, counter)
    g = compute_ghat(sd, bs, Ghat, L, counter)
    C, c, lb, ub = condense_constraints(sd, bs, Ghat, L, counter)
    return DenseQp(H=H, g=g, Crows=C, cvec=c, lb=lb, ub=ub), SensitivityChain(Ghat=Ghat, L=L)


def expand(Ghat: np.ndarray, L: np.ndarray, dx0: np.ndarray,
           du: np.ndarray) -> np.ndarray:
    """Recover the state steps from the blocked input step.

    Returns dxs with dxs[0] = dx0 and dxs[k+1] = Ghat[k] du + L[k];
    the result satisfies the stage recursion of the blocked QP exactly.
    """
    N, nx, _ = Ghat.shape
    dxs = np.zeros((N + 1, nx))
    dxs[0] = dx0
    dxs[1:] = Ghat.dot(np.asarray(du, dtype=float).reshape(-1)) + L
    return dxs


def flop_count(dims: ProblemDims, bs: BlockStructure) -> int:
    """Leading-order multiply count of the reduced-Hessian recursion.

    Returns N*M*(nx^2*nu + nx*nu^2), the Q and B products over all columns;
    the sweep adds (N-1)*M*nx^2*nu more, so instrumented counts land within
    a small constant factor of the prediction.
    """
    return bs.N * bs.M * (dims.nx ** 2 * dims.nu + dims.nx * dims.nu ** 2)


# --- naive explicit-T pipeline (oracle / baseline) -------------------------

def _full_G(sd: StageData, counter: FlopCounter | None = None) -> np.ndarray:
    """Unblocked sensitivity grid G[k, j] = d x_{k+1} / d u_j, O(N^2) blocks."""
    N, nx, nu = sd.N, sd.nx, sd.nu
    G = np.zeros((N, N, nx, nu))
    for j in range(N):
        G[j, j] = sd.Bs[j]
        for k in range(j + 1, N):
            G[k, j] = _mm(counter, sd.As[k], G[k - 1, j])
    return G


def naive_condense(sd: StageData, bs: BlockStructure,
                   counter: FlopCounter | None = None) -> DenseQp:
    """Baseline route: condense the unblocked problem, then fold with the explicit T.

    Semantically identical to :func:`condense`; kept as the oracle for the
    tailored pipeline and as the O(N^2) baseline of the benchmark.  The
    unblocked Hc, gc, Cc and cc are over the N*nu interval inputs.
    """
    N, nu = sd.N, sd.nu
    G = _full_G(sd, counter)
    L = np.empty((N, sd.nx))  # the residual chain, node by node
    for k in range(N):
        L[k] = _mm(counter, sd.As[k], L[k - 1] if k else sd.dx0) + sd.ds[k]

    Hc = np.zeros((N * nu, N * nu))
    for j in range(N):
        W = _mm(counter, sd.QN, G[N - 1, j])
        for k in range(N - 1, j, -1):
            Hc[k * nu:(k + 1) * nu, j * nu:(j + 1) * nu] = _mm(counter, sd.Bs[k].T, W)
            W = _mm(counter, sd.Qs[k], G[k - 1, j]) + _mm(counter, sd.As[k].T, W)
        Hc[j * nu:(j + 1) * nu, j * nu:(j + 1) * nu] = sd.Rs[j] + _mm(counter, sd.Bs[j].T, W)
    upper = np.kron(np.triu(np.ones((N, N), dtype=bool), 1), np.ones((nu, nu), dtype=bool))
    Hc[upper] = Hc.T[upper]

    gc = np.zeros((N, nu))
    w = sd.qN + _mm(counter, sd.QN, L[N - 1])
    for k in range(N - 1, 0, -1):
        gc[k] = sd.rs[k] + _mm(counter, sd.Bs[k].T, w)
        w = sd.qs[k] + _mm(counter, sd.Qs[k], L[k - 1]) + _mm(counter, sd.As[k].T, w)
    gc[0] = sd.rs[0] + _mm(counter, sd.Bs[0].T, w)

    cc = np.concatenate([sd.c.reshape(-1), sd.cN])
    Cc, r = np.zeros((len(cc), N * nu)), 0
    for k, Cx in enumerate(list(sd.Cx) + [sd.CxN], start=1):  # the rows of node k
        at, r = slice(r, r + len(Cx)), r + len(Cx)
        for j in range(k):
            Cc[at, j * nu:(j + 1) * nu] = _mm(counter, Cx, G[k - 1, j])
        cc[at] += _mm(counter, Cx, L[k - 1])

    T = build_T(bs, nu)
    Hh = _mm(counter, T.T, _mm(counter, Hc, T))
    gh = _mm(counter, T.T, gc.reshape(-1, 1)).ravel()
    Ch = _mm(counter, Cc, T)
    Hh = 0.5 * (Hh + Hh.T)
    lb = sd.du_lo.reshape(bs.M * nu).copy()
    ub = sd.du_hi.reshape(bs.M * nu).copy()
    return DenseQp(H=Hh, g=gh, Crows=Ch, cvec=cc, lb=lb, ub=ub)
