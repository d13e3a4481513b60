import numpy as np
import pytest

from blockmpc.blocking import build_T, from_block_lengths, unit_blocks
from blockmpc.condensing import (
    FlopCounter,
    compute_Ghat,
    compute_Hhat,
    compute_L,
    compute_ghat,
    condense,
    condense_constraints,
    expand,
    naive_condense,
    workspace,
)
from blockmpc.harness import SchemeConfig, _plant_step, build_controller, synthetic_stage_data
from blockmpc.model import ProblemDims
from blockmpc.shooting import StageData
from oracles import (
    column_Hhat,
    dense_condense,
    flop_count,
    ghat_blocks,
    kron_T,
    loop_block_transitions,
    loop_condense_constraints,
    loop_Ghat,
    loop_ghat,
    loop_Hhat,
    loop_L,
    loop_Phi,
    perturbed_scheme_stage_data,
    ragged_stage_data,
    random_block_structure,
)


def scalar_chain(N, A=1.0, B=1.0, Q=1.0, R=1.0, QN=1.0):
    """Scalar stage data with constant coefficients and zero gradients."""
    ones = np.ones((N, 1, 1))
    return StageData(
        As=A * ones, Bs=B * ones, ds=np.zeros((N, 1)),
        Qs=Q * ones, Rs=R * ones,
        qs=np.zeros((N, 1)), rs=np.zeros((N, 1)),
        QN=QN * np.ones((1, 1)), qN=np.zeros(1),
        Cx=np.zeros((N - 1, 0, 1)), c=np.zeros((N - 1, 0)), CxN=np.zeros((0, 1)), cN=np.zeros(0),
        dx0=np.zeros(1),
        du_lo=np.full((N, 1), -np.inf), du_hi=np.full((N, 1), np.inf))


def rand_sd(rng, N, nx, nu, M, nc=2, ncN=1):
    return synthetic_stage_data(rng, N, nx, nu, M=M, nc=nc, ncN=ncN)


# --- Ghat --------------------------------------------------------------------

def test_ghat_scalar_chain_hand_values():
    h = 0.3
    sd = scalar_chain(2, A=1.0, B=h)
    bs = from_block_lengths([2])
    Gh = ghat_blocks(compute_Ghat(sd, bs), 1)
    assert Gh[0, 0, 0, 0] == pytest.approx(h)
    assert Gh[1, 0, 0, 0] == pytest.approx(2 * h)


def test_ghat_unit_blocks_equals_unblocked_G():
    rng = np.random.default_rng(3)
    sd = rand_sd(rng, 7, 3, 2, M=7)
    bs = unit_blocks(7)
    Gh = ghat_blocks(compute_Ghat(sd, bs), 2)
    ref = dense_condense(sd)["G"]
    assert np.abs(Gh - ref).max() < 1e-12


def test_ghat_matches_explicit_GT_product():
    rng = np.random.default_rng(4)
    lengths = [1, 2, 4, 5]
    bs = from_block_lengths(lengths)
    sd = rand_sd(rng, 12, 3, 2, M=4)
    Gh = compute_Ghat(sd, bs)
    G = dense_condense(sd)["G"]
    Gmat = G.transpose(0, 2, 1, 3).reshape(12 * 3, 12 * 2)
    GT = Gmat @ kron_T(lengths, 2)
    Gh_mat = Gh.reshape(12 * 3, 4 * 2)
    assert np.abs(Gh_mat - GT).max() < 1e-10 * max(1.0, np.abs(GT).max())


@pytest.mark.parametrize("nu", [2, 3])
def test_ghat_layout_contiguous_with_block_major_columns(nu):
    # every consumer reads Ghat in place: column j*nu + u is input u of block j
    rng = np.random.default_rng(30 + nu)
    bs = from_block_lengths([1, 3, 2, 5])
    sd = rand_sd(rng, bs.N, 3, nu, M=bs.M)
    _, chain = condense(sd, bs)
    Gh, ref = chain.Ghat, loop_Ghat(sd, bs)
    assert Gh.shape == (bs.N, 3, bs.M * nu) and Gh.flags.c_contiguous
    for j in range(bs.M):
        for u in range(nu):
            assert np.abs(Gh[:, :, j * nu + u] - ref[:, j, :, u]).max() <= 1e-13 * np.abs(ref).max()


def test_ghat_zero_column_property():
    rng = np.random.default_rng(5)
    lengths = [3, 2, 5]
    bs = from_block_lengths(lengths)
    sd = rand_sd(rng, 10, 2, 1, M=3)
    Gh = ghat_blocks(compute_Ghat(sd, bs), 1)
    for j in range(bs.M):
        for k in range(bs.I[j]):
            assert not Gh[k, j].any()


# --- L and expansion ---------------------------------------------------------

def test_L_zero_for_feasible_point():
    sd = scalar_chain(5)
    assert not compute_L(sd, from_block_lengths([5])).L.any()


def test_L_telescopes_with_identity_A():
    N = 6
    sd = scalar_chain(N, A=1.0)
    d = 0.7
    sd.ds = d * np.ones((N, 1))
    L = compute_L(sd, unit_blocks(N)).L
    assert np.allclose(L.ravel(), d * np.arange(1, N + 1))


def test_expand_zero_step_gives_residual_chain():
    rng = np.random.default_rng(6)
    bs = from_block_lengths([2, 3])
    sd = rand_sd(rng, 5, 3, 1, M=2)
    L = compute_L(sd, bs).L
    Gh = compute_Ghat(sd, bs)
    dxs = expand(Gh, L, sd.dx0, np.zeros(2))
    assert np.allclose(dxs[0], sd.dx0)
    assert np.allclose(dxs[1:], L)


def test_expand_satisfies_stage_recursion():
    rng = np.random.default_rng(7)
    lengths = [1, 2, 4, 5]
    bs = from_block_lengths(lengths)
    for nu in (2, 3):
        sd = rand_sd(rng, 12, 3, nu, M=4)
        Gh = compute_Ghat(sd, bs)
        L = compute_L(sd, bs).L
        du = rng.standard_normal((4, nu))
        dxs = expand(Gh, L, sd.dx0, du)
        blocks = bs.blocks
        for k in range(12):
            pred = sd.As[k] @ dxs[k] + sd.Bs[k] @ du[blocks[k]] + sd.ds[k]
            assert np.abs(pred - dxs[k + 1]).max() < 1e-12


# --- the forward chain ------------------------------------------------------

def check_forward_chain(sd, bs):
    nx = sd.nx
    chain = compute_L(sd, bs)
    assert chain.P.shape == (bs.N, nx, nx + 1)
    assert_rel(chain.P[:, :, :nx], loop_Phi(sd))
    assert_rel(chain.P[:, :, nx], loop_L(sd, np.zeros(nx)))
    assert_rel(chain.L, loop_L(sd, sd.dx0))
    assert_rel(ghat_blocks(compute_Ghat(sd, bs), sd.nu), loop_Ghat(sd, bs))
    assert np.array_equal(compute_Ghat(sd, bs), compute_Ghat(sd, bs, chain=chain))


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_forward_chain_matches_loops_on_scheme_data(scheme):
    bs, sd = perturbed_scheme_stage_data(scheme)
    check_forward_chain(sd, bs)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("lengths", [[1, 3, 1, 4], [3, 2], [1, 2, 3], [5], [1]])
def test_forward_chain_matches_loops_across_restarts(lengths, nu):
    # the block sensitivity restarts at each block longer than one interval; unit blocks take B
    rng = np.random.default_rng(40 + nu)
    bs, sd = ragged_stage_data(rng, lengths, 3, nu)
    check_forward_chain(sd, bs)


# --- the workspace's node sets -------------------------------------------------

def workspace_nodes_by_definition(bs):
    """Chain restarts, unit nodes, Psi nodes and the mirror mask, entry by entry."""
    N, M, I, n = bs.N, bs.M, bs.I, bs.lengths
    return {
        "restarts": [I[b] for b in range(1, M) if n[b] > 1],
        "units": [k for b in range(M) if n[b] == 1 for k in range(I[b], I[b + 1])],
        "psi": [k for b in range(2, M) if n[b] > 1 for k in range(I[b], I[b + 1])],
        "upper": np.array([[i < j for j in range(M)] for i in range(M)]),
    }


def test_workspace_node_sets_match_definition():
    rng = np.random.default_rng(11)
    cases = [[1], [9], [1] * 6] + [random_block_structure(rng, int(rng.integers(2, 20)))
                                   for _ in range(10)]
    for lengths in cases:  # N = 1, M = 1, unit blocks, then random partitions
        bs = from_block_lengths(lengths)
        ws = workspace(bs, 3, 2)
        ref = workspace_nodes_by_definition(bs)
        restarts, k = [], 0  # a restart is a copy step before the node's product
        for f, *_ in ws.chain_steps:
            if f is np.copyto:
                restarts.append(k)
            else:
                k += 1
        assert k == bs.N and restarts == ref["restarts"], lengths
        assert ws.units.tolist() == ref["units"], lengths
        runs = ws.psi_runs
        assert [k for r in runs for k in range(r.start, r.stop)] == ref["psi"], lengths
        assert all(a.stop < b.start for a, b in zip(runs, runs[1:])), lengths  # maximal runs
        assert ws.upper.shape == ref["upper"].shape
        assert np.array_equal(ws.upper, ref["upper"]), lengths


# --- block transitions and the block-by-block Ghat step -----------------------

def psi_nodes(bs):
    """The nodes of the blocks b >= 2 longer than one interval, where the chain carries Psi."""
    return [k for b in range(2, bs.M) if bs.lengths[b] > 1 for k in range(bs.I[b], bs.I[b + 1])]


def check_block_transitions(sd, bs):
    chain = compute_L(sd, bs)
    nodes = psi_nodes(bs)
    assert chain.Psi.shape == (bs.N, sd.nx, sd.nx if nodes else 0)
    if nodes:
        assert_rel(chain.Psi[nodes], loop_block_transitions(sd, bs)[nodes])
    assert_rel(ghat_blocks(compute_Ghat(sd, bs, chain=chain), sd.nu), loop_Ghat(sd, bs))
    assert len(workspace(bs, sd.nx, sd.nu).column_steps) == (bs.M - 1) * (bs.M - 2) // 2


TRANSITION_LAYOUTS = {
    "long-after-units": [1, 1, 4, 2],
    "long-block-0": [4, 1, 1, 3],
    "long-block-1": [1, 4, 1, 2, 1],
    "units-between-longs": [2, 1, 3, 1, 1, 5, 1],
    "only-block-1-long": [1, 5, 1, 1],
    "M1": [6],
    "M2": [2, 5],
    "M3": [1, 2, 3],
    "M3-units": [1, 1, 1],
}


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("lengths", TRANSITION_LAYOUTS.values(), ids=TRANSITION_LAYOUTS.keys())
def test_block_transitions_match_loop_on_mixed_layouts(lengths, nu):
    rng = np.random.default_rng(50 + nu)
    bs, sd = ragged_stage_data(rng, lengths, 3, nu)
    check_block_transitions(sd, bs)


@pytest.mark.parametrize("seed", range(6))
def test_block_transitions_match_loop_on_random_partitions(seed):
    rng = np.random.default_rng(60 + seed)
    lengths = [1, 1] + random_block_structure(rng, 14)  # every layout has blocks b >= 2
    bs, sd = ragged_stage_data(rng, lengths, 3, 1 + seed % 3)
    check_block_transitions(sd, bs)


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_block_transitions_match_loop_on_scheme_data(scheme):
    bs, sd = perturbed_scheme_stage_data(scheme)
    check_block_transitions(sd, bs)


def test_unit_blocks_ghat_is_the_node_by_node_recurrence_bit_for_bit():
    # with unit blocks every block product is the one-node product A_k Ghat[k-1]
    bs, sd = perturbed_scheme_stage_data("A")
    Gh = ghat_blocks(compute_Ghat(sd, bs), sd.nu)
    for j in range(1, bs.M - 1):
        for k in range(j + 1, bs.N):
            assert np.array_equal(Gh[k, j], sd.As[k].dot(Gh[k - 1, j]))


@pytest.mark.parametrize("scheme, steps, width, mults", [
    ("A", 3_081, 7, 473_296), ("B", 36, 7, 8_776), ("C", 36, 11, 82_496)])
def test_column_steps_chain_width_and_counts_are_pinned(scheme, steps, width, mults):
    # (M-1)(M-2)/2 column products.  Unit-block structures (A, B) carry no Psi
    # columns, so the chain is nx+1+2nu wide; C's chain is nx wider, and its
    # Psi columns make N nx (nx+nu+1) nx = 7,680 of C's multiplies.
    bs, sd = perturbed_scheme_stage_data(scheme)
    counter = FlopCounter()
    condense(sd, bs, counter)
    ws = workspace(bs, sd.nx, sd.nu)
    assert len(ws.column_steps) == (bs.M - 1) * (bs.M - 2) // 2 == steps
    assert ws.Y.shape[2] == width
    assert counter.mults == mults


# --- Hhat --------------------------------------------------------------------

def test_hhat_two_stage_hand_value():
    sd = scalar_chain(2)
    bs = from_block_lengths([2])
    Gh = compute_Ghat(sd, bs)
    H = compute_Hhat(sd, bs, Gh)
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(7.0)
    # the unblocked condensed Hessian behind it is [[3,1],[1,2]]
    ref = dense_condense(sd)["Hc"]
    assert np.allclose(ref, [[3.0, 1.0], [1.0, 2.0]])
    T = kron_T([2], 1)
    assert (T.T @ ref @ T)[0, 0] == pytest.approx(7.0)


def test_hhat_unit_blocks_equals_unblocked():
    rng = np.random.default_rng(8)
    sd = rand_sd(rng, 6, 3, 2, M=6)
    bs = unit_blocks(6)
    Gh = compute_Ghat(sd, bs)
    H = compute_Hhat(sd, bs, Gh)
    ref = dense_condense(sd)["Hc"]
    assert np.abs(H - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_hhat_matches_explicit_T_products():
    rng = np.random.default_rng(9)
    lengths = [1, 2, 4, 5]
    bs = from_block_lengths(lengths)
    sd = rand_sd(rng, 12, 3, 2, M=4)
    Gh = compute_Ghat(sd, bs)
    H = compute_Hhat(sd, bs, Gh)
    T = kron_T(lengths, 2)
    ref = T.T @ dense_condense(sd)["Hc"] @ T
    assert np.abs(H - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_hhat_symmetric_and_positive_definite():
    rng = np.random.default_rng(10)
    for _ in range(5):
        N = int(rng.integers(3, 12))
        lengths = random_block_structure(rng, N)
        bs = from_block_lengths(lengths)
        sd = rand_sd(rng, N, 3, 2, M=bs.M)
        H = compute_Hhat(sd, bs, compute_Ghat(sd, bs))
        assert np.abs(H - H.T).max() < 1e-12 * max(1.0, np.abs(H).max())
        np.linalg.cholesky(H)  # R > 0 makes the reduced Hessian PD


# --- gradient ----------------------------------------------------------------

def test_ghat_gradient_zero_without_gradients_or_residuals():
    sd = scalar_chain(4)
    bs = from_block_lengths([2, 2])
    Gh = compute_Ghat(sd, bs)
    L = compute_L(sd, bs).L
    g = compute_ghat(sd, bs, Gh, L)
    assert not g.any()


def test_scheme_C_stage_gradients_are_equal_within_each_block():
    # compute_ghat sums each block's r_k in one order; any order rounds alike because
    # r_k = R (u_k - u_ref) is formed from the block's one input with unit weights
    cfg = SchemeConfig(scheme="C", sim_time=1.0).validate()
    ctrl = build_controller(cfg)
    x = np.array(cfg.x0)
    state = ctrl.initial_state(x)
    for _ in range(40):
        prep = ctrl.prepare(state, x)
        rs = prep.sd.rs
        for a, b in zip(ctrl.bs.I, ctrl.bs.I[1:]):
            assert rs[a:b].tobytes() == rs[a].tobytes() * (b - a)
        u, state = ctrl.feedback(state, prep, x)
        x = _plant_step(ctrl.problem.state_step, x, u, cfg.Ts, cfg.plant_substeps)


def test_gradient_unit_blocks_matches_dense():
    rng = np.random.default_rng(11)
    sd = rand_sd(rng, 6, 3, 2, M=6)
    bs = unit_blocks(6)
    Gh = compute_Ghat(sd, bs)
    L = compute_L(sd, bs).L
    g = compute_ghat(sd, bs, Gh, L)
    ref = dense_condense(sd)["gc"]
    assert np.abs(g - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_gradient_blocked_matches_T_transpose():
    rng = np.random.default_rng(12)
    lengths = [2, 1, 3]
    bs = from_block_lengths(lengths)
    sd = rand_sd(rng, 6, 3, 2, M=3)
    Gh = compute_Ghat(sd, bs)
    L = compute_L(sd, bs).L
    g = compute_ghat(sd, bs, Gh, L)
    T = kron_T(lengths, 2)
    ref = T.T @ dense_condense(sd)["gc"]
    assert np.abs(g - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


# --- constraints -------------------------------------------------------------

def test_constraints_empty_without_state_rows():
    sd = scalar_chain(3)
    sd.du_lo = np.full((1, 1), -2.0)
    sd.du_hi = np.full((1, 1), 5.0)
    bs = from_block_lengths([3])
    Gh = compute_Ghat(sd, bs)
    L = compute_L(sd, bs).L
    C, c, lb, ub = condense_constraints(sd, bs, Gh, L)
    assert C.shape == (0, 1) and c.size == 0
    assert lb[0] == -2.0 and ub[0] == 5.0


def test_single_step_row_matches_Ghat_pattern():
    rng = np.random.default_rng(13)
    sd = rand_sd(rng, 2, 2, 1, M=1, nc=0, ncN=0)
    sd.Cx, sd.c = np.eye(2)[None], np.zeros((1, 2))  # two rows at node 1, none at node 2
    bs = from_block_lengths([2])
    Gh = compute_Ghat(sd, bs)
    L = compute_L(sd, bs).L
    C, c, _, _ = condense_constraints(sd, bs, Gh, L)
    assert np.allclose(C[:, 0], ghat_blocks(Gh, 1)[0, 0].ravel())
    assert np.allclose(c, L[0])


def test_constraints_match_explicit_T_product():
    rng = np.random.default_rng(14)
    lengths = [1, 2, 4, 5]
    bs = from_block_lengths(lengths)
    sd = rand_sd(rng, 12, 3, 2, M=4, nc=2, ncN=2)
    Gh = compute_Ghat(sd, bs)
    L = compute_L(sd, bs).L
    C, c, _, _ = condense_constraints(sd, bs, Gh, L)
    ref = dense_condense(sd)
    T = kron_T(lengths, 2)
    assert np.abs(C - ref["Cc"] @ T).max() < 1e-10 * max(1.0, np.abs(ref["Cc"]).max())
    assert np.abs(c - ref["cc"]).max() < 1e-10 * max(1.0, np.abs(ref["cc"]).max())


# --- batched routes against their loop forms ------------------------------------

def assert_rel(a, b, tol=1e-13):
    assert a.shape == b.shape
    scale = np.abs(b).max(initial=0.0)
    assert np.abs(a - b).max(initial=0.0) <= tol * scale


def check_against_loops(sd, bs):
    Gh = compute_Ghat(sd, bs)
    Gh4 = ghat_blocks(Gh, sd.nu)
    L = compute_L(sd, bs).L
    assert_rel(Gh4, loop_Ghat(sd, bs))
    assert_rel(L, loop_L(sd, sd.dx0))
    assert_rel(compute_Hhat(sd, bs, Gh), loop_Hhat(sd, bs, Gh4))
    assert_rel(compute_ghat(sd, bs, Gh, L), loop_ghat(sd, bs, L))
    C, c, _, _ = condense_constraints(sd, bs, Gh, L)
    C_ref, c_ref = loop_condense_constraints(sd, bs, Gh4, L)
    assert_rel(C, C_ref)
    assert_rel(c, c_ref)


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_batched_condensing_matches_loops_on_scheme_data(scheme):
    bs, sd = perturbed_scheme_stage_data(scheme)
    check_against_loops(sd, bs)


@pytest.mark.parametrize("lengths", [[1, 2, 4, 5], [3, 1, 1, 2], [7]])
def test_batched_condensing_matches_loops_on_ragged_rows(lengths):
    # stage and terminal nodes carry different row counts, stage nodes none at all too
    rng = np.random.default_rng(20)
    for nc in (1, 0):
        bs, sd = ragged_stage_data(rng, lengths, 3, 2, nc=nc, ncN=2)
        assert sd.Cx.shape == (bs.N - 1, nc, 3) and sd.CxN.shape == (2, 3)
        check_against_loops(sd, bs)


@pytest.mark.parametrize("scheme", ["A", "B", "C"])
def test_hhat_matches_column_sweep_on_scheme_data(scheme):
    bs, sd = perturbed_scheme_stage_data(scheme)
    Gh = compute_Ghat(sd, bs)
    assert_rel(compute_Hhat(sd, bs, Gh), column_Hhat(sd, bs, ghat_blocks(Gh, sd.nu)), tol=1e-12)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_hhat_matches_column_sweep_on_random_blocks(nu):
    rng = np.random.default_rng(22 + nu)
    cases = [[1], [9], [1] * 6] + [random_block_structure(rng, int(rng.integers(2, 16)))
                                   for _ in range(8)]
    for lengths in cases:  # N = 1, M = 1, unit blocks, then random partitions
        bs = from_block_lengths(lengths)
        sd = rand_sd(rng, bs.N, 3, nu, M=bs.M)
        Gh = compute_Ghat(sd, bs)
        assert_rel(compute_Hhat(sd, bs, Gh), column_Hhat(sd, bs, ghat_blocks(Gh, nu)), tol=1e-12)


@pytest.mark.parametrize("scheme", ["A", "C"])
def test_condense_count_is_python_int(scheme):
    bs, sd = perturbed_scheme_stage_data(scheme)
    counter = FlopCounter()
    condense(sd, bs, counter)
    assert type(counter.mults) is int and counter.mults > 0


# --- reused workspace -----------------------------------------------------------

def qp_arrays(qp, chain):
    return {"H": qp.H, "g": qp.g, "Crows": qp.Crows, "cvec": qp.cvec, "lb": qp.lb,
            "ub": qp.ub, "Ghat": chain.Ghat, "L": chain.L}


def assert_same_bytes(got: dict, want: dict):
    for name, b in want.items():
        a = got[name]
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("lengths", [[12], [5, 7], [1] * 8, [1, 6, 9, 7]],
                         ids=["M1", "M2", "unit", "restarts"])
def test_reused_workspace_matches_one_off_byte_for_byte(lengths):
    rng = np.random.default_rng(27)
    bs = from_block_lengths(lengths)
    condense(rand_sd(rng, bs.N, 12, 3, M=bs.M), bs)  # leaves other data in the buffers
    ws = workspace(bs, 12, 3)
    sd = rand_sd(rng, bs.N, 12, 3, M=bs.M, nc=2, ncN=3)
    reused, one_off = FlopCounter(), FlopCounter()
    got = qp_arrays(*condense(sd, bs, reused))
    workspace.cache_clear()
    assert_same_bytes(got, qp_arrays(*condense(sd, bs, one_off)))
    assert workspace(bs, 12, 3) is not ws  # the second run built a fresh workspace
    assert reused.mults == one_off.mults
    for a in got.values():
        assert not any(np.shares_memory(a, buf) for buf in vars(ws).values()
                       if isinstance(buf, np.ndarray))


# --- naive pipeline ----------------------------------------------------------

def test_naive_unit_blocks_two_stage_closed_form():
    # textbook condensing of the 2-stage chain with unit weights
    sd = scalar_chain(2)
    qp = naive_condense(sd, unit_blocks(2))
    assert np.allclose(qp.H, [[3.0, 1.0], [1.0, 2.0]])


def test_naive_single_stage_closed_form():
    rng = np.random.default_rng(15)
    sd = rand_sd(rng, 1, 3, 2, M=1, nc=0, ncN=0)
    qp = naive_condense(sd, unit_blocks(1))
    ref = sd.Rs[0] + sd.Bs[0].T @ sd.QN @ sd.Bs[0]
    assert np.abs(qp.H - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_naive_zero_B_gives_R_blocks():
    rng = np.random.default_rng(16)
    sd = rand_sd(rng, 4, 2, 2, M=4, nc=0, ncN=0)
    sd.Bs[:] = 0.0
    qp = naive_condense(sd, unit_blocks(4))
    ref = np.zeros((8, 8))
    for k in range(4):
        ref[2 * k:2 * k + 2, 2 * k:2 * k + 2] = sd.Rs[k]
    assert np.abs(qp.H - ref).max() < 1e-12


def test_pipeline_equivalence_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(40):
        N = int(rng.integers(1, 15))
        nx = int(rng.integers(1, 5))
        nu = int(rng.integers(1, 4))
        lengths = random_block_structure(rng, N)
        bs = from_block_lengths(lengths)
        sd = rand_sd(rng, N, nx, nu, M=bs.M, nc=int(rng.integers(0, 3)),
                     ncN=int(rng.integers(0, 3)))
        qp_t, _ = condense(sd, bs)
        qp_n = naive_condense(sd, bs)
        for name in ("H", "g", "C", "c", "lb", "ub"):
            a = getattr(qp_t, name)
            b = getattr(qp_n, name)
            if a.size == 0:
                assert b.size == 0
                continue
            scale = max(1.0, np.abs(b[np.isfinite(b)]).max(initial=0.0))
            finite = np.isfinite(b)
            assert np.array_equal(np.isfinite(a), finite)
            assert np.abs(a[finite] - b[finite]).max(initial=0.0) < 1e-10 * scale, name


# --- flop accounting ----------------------------------------------------------

def test_flop_count_paper_point():
    dims = ProblemDims(nx=4, nu=1)
    bs = from_block_lengths([8] * 10)
    assert flop_count(dims, bs) == 80 * 10 * (16 + 4) == 16000


def test_flop_count_unit_blocks_quadratic():
    dims = ProblemDims(nx=4, nu=1)
    n1 = flop_count(dims, unit_blocks(20))
    n2 = flop_count(dims, unit_blocks(40))
    assert n2 == 4 * n1


def test_flop_count_linear_in_N():
    dims = ProblemDims(nx=4, nu=1)
    n1 = flop_count(dims, from_block_lengths([2] * 10))
    n2 = flop_count(dims, from_block_lengths([4] * 10))
    assert n2 == 2 * n1


def test_instrumented_hhat_within_3x_of_prediction():
    rng = np.random.default_rng(18)
    dims = ProblemDims(nx=4, nu=1)
    for lengths in ([8] * 10, [1] * 40, [2, 3, 5, 10, 20]):
        bs = from_block_lengths(lengths)
        sd = rand_sd(rng, bs.N, 4, 1, M=bs.M, nc=0, ncN=0)
        counter = FlopCounter()
        compute_Hhat(sd, bs, compute_Ghat(sd, bs), counter)
        pred = flop_count(dims, bs)
        assert counter.mults <= 3 * pred
        assert counter.mults >= pred / 3


def test_hhat_count_growth_ratios():
    rng = np.random.default_rng(19)
    dims = ProblemDims(nx=4, nu=1)

    def hhat_mults(bs):
        sd = rand_sd(rng, bs.N, 4, 1, M=bs.M, nc=0, ncN=0)
        counter = FlopCounter()
        compute_Hhat(sd, bs, compute_Ghat(sd, bs), counter)
        return counter.mults

    fixed = [hhat_mults(from_block_lengths([n // 10] * 10)) for n in (20, 40, 80)]
    assert 1.8 <= fixed[1] / fixed[0] <= 2.2
    assert 1.8 <= fixed[2] / fixed[1] <= 2.2
    unit = [hhat_mults(unit_blocks(n)) for n in (20, 40, 80)]
    assert 3.5 <= unit[1] / unit[0] <= 4.5
    assert 3.5 <= unit[2] / unit[1] <= 4.5

