"""State elimination for the blocked stage-wise QP.

Two routes produce the same dense reduced QP in the M*nu blocked input
steps:

* the tailored route works directly on the blocked stage data and costs
  O(N*M) block operations (the fast path used by the controller).  Python
  loops remain only for the recurrences, one product per step: the forward
  chain (``compute_L``: Phi, the residual chain, Ghat's column 0, every
  block's own rows and the block transitions), Ghat's later columns, one
  product per (column, later block), and the Hhat sweep over all block
  columns at once.  Each loop runs a step list of the structure's one
  ``CondensingWorkspace``, over buffers it owns.  Every other term is one
  stacked product that reads Ghat in place;
* the naive route condenses the unblocked problem in O(N^2) and then
  folds it with the explicit selection matrix T (kept as a test oracle
  and as the baseline for the complexity benchmark).

``FlopCounter`` instruments the multiply count of either route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocking import BlockStructure, block_sums, build_T
from .model import ProblemDims
from .qp_solver import DenseQp
from .shooting import StageData


class FlopCounter:
    """Accumulates the multiply count of instrumented block operations."""

    def __init__(self):
        self.mults = 0


def _mm(counter: FlopCounter | None, A: np.ndarray, B: np.ndarray,
        out: np.ndarray | None = None) -> np.ndarray:
    """A @ B, stacked or not, counting its batch*a*b*c multiplies ((a x b) @ (b x c))."""
    out = np.matmul(A, B, out=out)
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
    """The products of :func:`compute_L`; all but L are views of its workspace.

    P[k] = [Phi_k | L_d[k]] with Phi_k = A_k...A_0 and L_d the residual chain
    at dx0 = 0, so L = Phi dx0 + L_d; G0[k] = Ghat[k]'s block column 0,
    own[k] = Ghat[k]'s block column blocks[k], the block interval k is in,
    and Psi[k] = A_k...A_{I[b]} if k is in a block b >= 2 longer than one
    interval (Psi has no columns if no block is).
    """

    P: np.ndarray    # (N, nx, nx+1)
    G0: np.ndarray   # (N, nx, nu)
    own: np.ndarray  # (N, nx, nu)
    Psi: np.ndarray  # (N, nx, nx) or (N, nx, 0)
    L: np.ndarray    # (N, nx)


class CondensingWorkspace:
    """The buffers and step lists of the three condensing recurrences.

    They depend only on the block structure and (nx, nu), and equal
    structures and sizes share one, from :func:`workspace`, per process.
    Each recurrence is a prebuilt list of steps ``(f, a, b)`` run as
    ``f(a, b)``: a bound ``ndarray.dot`` of a buffer view with its operand
    and output views (``out`` passed by position) or, at a chain restart,
    ``np.copyto`` with its target and source.  Every call refills the
    buffers before it reads them, and nothing ``condense`` returns aliases
    them; a ``ForwardChain``'s views stay valid until the next condensing
    call on an equal structure.  Condensing is single-threaded.
    """

    def __init__(self, bs: BlockStructure, nx: int, nu: int):
        N, M, I = bs.N, bs.M, bs.I
        in_psi = (bs.blocks >= 2) & (np.asarray(bs.lengths)[bs.blocks] > 1)
        edges = np.flatnonzero(np.diff(np.concatenate([[0], in_psi, [0]])))
        self.psi_runs = [slice(a, b) for a, b in edges.reshape(-1, 2).tolist()]  # Psi's nodes
        self.g0 = g0 = slice(nx + 1, nx + 1 + nu)
        self.c = c = slice(nx + 1 + nu, nx + 1 + 2 * nu)
        self.psi = psi = slice(c.stop, c.stop + nx * bool(self.psi_runs))
        # compute_L: node k reads Y[k] = [X_{k-1}; S_k] and writes Y[k+1, :nx]
        self.ABd = np.empty((N, nx, nx + nu + 1))  # [A_k | B_k | d_k]
        self.Y = Y = np.zeros((N + 1, nx + nu + 1, psi.stop))
        Y[0, :nx, :nx] = np.eye(nx)
        Y[:, nx + nu, nx] = 1.0
        Y[:, nx:nx + nu, c] = np.eye(nu)
        Y[:I[1], nx:nx + nu, g0] = np.eye(nu)
        self.dx1 = np.ones(nx + 1)  # [dx0; 1]
        self.chain_steps = []
        ins, outs = list(Y), list(Y[1:, :nx])
        for k, ABd in enumerate(self.ABd):
            y = ins[k]
            if k in bs.long_starts:  # a copy of Y[k] whose c stays zero and Psi the identity
                y = y.copy()
                y[:nx, c] = 0.0
                y[:nx, psi] = np.eye(nx, psi.stop - psi.start)
                self.chain_steps.append((np.copyto, y[:nx, :c.start], Y[k, :nx, :c.start]))
            self.chain_steps.append((ABd.dot, y, outs[k]))
        # compute_Ghat: Gc[j, k] = block j of Ghat[k], zero before the block; its
        # rows in a later block b are the transitions of b times Gc[j, I[b]-1]
        self.trans = np.empty((N, nx, nx))  # A_k, and the chain's Psi_k in psi_runs
        self.Gc = Gc = np.zeros((M, N, nx, nu))
        self.nodes = np.arange(N)
        dots = [self.trans[a:b].reshape(-1, nx).dot for a, b in zip(I, I[1:])]
        self.column_steps = [(dots[b], Gc[j, I[b] - 1], Gc[j, I[b]:I[b + 1]].reshape(-1, nu))
                             for j in range(1, M - 1) for b in range(j + 1, M)]
        # compute_Hhat: node k reads Z[k] = [W_{k+1}; Q_k Ghat[k-1]] and writes
        # W_k = [A_k' | I] Z[k] into Z[k-1, :nx]
        self.AtI = np.zeros((N, nx, 2 * nx))
        self.AtI[:, :, nx:] = np.eye(nx)
        self.Z = np.zeros((N, 2 * nx, M * nu))
        dots, ins, outs = [a.dot for a in self.AtI], list(self.Z), list(self.Z[:, :nx])
        self.sweep_steps = [(dots[k], ins[k], outs[k - 1]) for k in range(N - 1, 0, -1)]


# Bounded: a sweep over many structures (bench-condense's N list, random test
# partitions) must not hold every workspace it built for the life of the process.
@lru_cache(maxsize=16)
def workspace(bs: BlockStructure, nx: int, nu: int) -> CondensingWorkspace:
    """The one workspace of structure ``bs`` and sizes (nx, nu), built on first use."""
    return CondensingWorkspace(bs, nx, nu)


def compute_L(sd: StageData, bs: BlockStructure,
              counter: FlopCounter | None = None) -> ForwardChain:
    """The forward chain: Phi, L_d, Ghat's column 0, every block's own rows, Psi.

    Node k is one product X_k = [A_k | B_k | d_k] [X_{k-1}; S_k] with
    X_k = [Phi_k | L_d[k] | g0_k | c_k | Psi_k] and X_{-1} = [I | 0 | ...];
    the constant selector rows S_k route B_k into c, and into g0 inside
    block 0 only, and d_k into L_d.  c is the sensitivity to the current
    block's input and Psi the transition through it, A_k...A_{I[b]}.  Both
    restart at the first node of each block longer than one interval: that
    node reads a copy of X_{k-1} whose c stays zero and Psi the identity, so
    the previous block's last row stays in the buffer.  A unit block takes
    B_k for c.  Psi has nx columns if a block b >= 2 is longer than one
    interval, else none.  Node k writes row k+1 of the workspace's
    (N+1, nx+nu+1, nx+1+2nu [+nx]) buffer, whose selector rows are filled
    once, so the chain is N products plus one copy per restart, and L is
    the one stacked product P [dx0; 1].  Everything but L is independent of dx0.
    """
    N, nx, nu = sd.N, sd.nx, sd.nu
    ws = workspace(bs, nx, nu)
    np.concatenate([sd.As, sd.Bs, sd.ds[:, :, None]], axis=2, out=ws.ABd)
    for f, a, b in ws.chain_steps:
        f(a, b)
    X = ws.Y[1:, :nx]
    own = X[:, :, ws.c]
    own[bs.unit_nodes] = sd.Bs[bs.unit_nodes]
    P = X[:, :, :nx + 1]
    ws.dx1[:nx] = sd.dx0
    L = P.dot(ws.dx1)
    if counter is not None:
        counter.mults += N * nx * ((nx + nu + 1) * ws.psi.stop + nx + 1)
    return ForwardChain(P=P, G0=X[:, :, ws.g0], own=own, Psi=X[:, :, ws.psi], L=L)


def compute_Ghat(sd: StageData, bs: BlockStructure, counter: FlopCounter | None = None,
                 chain: ForwardChain | None = None) -> np.ndarray:
    """Blocked sensitivity chain, O(N*M) multiplies in (M-1)(M-2)/2 products.

    Column 0, and each column's rows inside its own block, are read from the
    forward chain (``chain``, or ``compute_L`` run here when it is None).  The
    loop is left with the rows after the block of columns 1..M-2, where a
    column only propagates through A: its rows in block b are the block
    transitions Psi_k of b's nodes times its row I[b]-1, one product per
    (column, later block) into the workspace's column-major buffer.  Psi is
    the workspace's C-contiguous ``trans``, the A stack (Psi_k = A_k in a
    unit block) with the chain's Psi copied over the longer blocks.  Returns
    a fresh C-contiguous (N, nx, M*nu) array, the layout every consumer reads.
    """
    N, M, nx, nu = bs.N, bs.M, sd.nx, sd.nu
    ws = workspace(bs, nx, nu)
    if chain is None:
        chain = compute_L(sd, bs, counter)
    np.copyto(ws.trans, sd.As)
    for run in ws.psi_runs:
        ws.trans[run] = chain.Psi[run]
    Gc = ws.Gc
    Gc[bs.blocks, ws.nodes] = chain.own
    Gc[0] = chain.G0
    for f, a, b in ws.column_steps:
        f(a, b)
    if counter is not None:  # the recurrence's products, one block at a time
        counter.mults += sum(out.size for *_, out in ws.column_steps) * nx
    return Gc.transpose(1, 2, 0, 3).copy().reshape(N, nx, M * nu)


def compute_Hhat(sd: StageData, bs: BlockStructure, Ghat: np.ndarray,
                 counter: FlopCounter | None = None) -> np.ndarray:
    """Reduced Hessian in O(N*M) block products.

    One backward sweep W_k = Q_k Ghat[k-1] + A_k' W_{k+1} (W_N = QN Ghat[N-1])
    carries all block columns at once, as one product per node:
    W_k = [A_k' | I] [W_{k+1}; Q_k Ghat[k-1]], whose lower halves, the
    seeds, are one stacked product.  Stage k adds B_k' W_{k+1} to row block
    blk[k]; the summed R of each block joins the diagonal, and the strict
    upper block triangle is mirrored from the lower.  The sweep also runs
    through the columns i > blk[k] that start after stage k, but what it
    adds there lands in that upper triangle, which the mirror overwrites.
    """
    N, M = bs.N, bs.M
    nx, nu = sd.nx, sd.nu
    ws = workspace(bs, nx, nu)
    Z = ws.Z
    np.copyto(ws.AtI[:, :, :nx], sd.As.transpose(0, 2, 1))
    _mm(counter, sd.Qs[1:], Ghat[:-1], out=Z[1:, nx:])  # Q_k Ghat[k-1], k = 1..N-1
    _mm(counter, sd.QN, Ghat[-1], out=Z[-1, :nx])  # W_N
    for f, a, b in ws.sweep_steps:
        f(a, b)
    if counter is not None:  # the sweep's products, identity half included
        counter.mults += len(ws.sweep_steps) * 2 * nx * nx * M * nu
    BW = _mm(counter, sd.Bs.transpose(0, 2, 1), Z[:, :nx])  # B_k' W_{k+1}
    H4 = block_sums(BW.reshape(N, nu, M, nu).swapaxes(1, 2), bs.sum_rows)
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


def condense(sd: StageData, bs: BlockStructure, counter: FlopCounter | None = None):
    """Tailored pipeline: stage data -> (DenseQp, SensitivityChain).

    The QP is the one ``solve_qp`` takes, over the M*nu blocked input steps;
    its general rows condense the state rows node by node, terminal rows last.
    The results never alias the structure's workspace.
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
    the sweep adds 2*(N-1)*M*nx^2*nu more (its products [A_k' | I] Z[k] are
    counted in full, identity half included), so instrumented counts land
    within a small constant factor of the prediction.
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
