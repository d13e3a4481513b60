import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmpc.blocking import (
    BlockStructure,
    InvalidBlockStructureError,
    block_sums,
    build_T,
    from_block_indices,
    from_block_lengths,
    unit_blocks,
)
from oracles import find_block, kron_T, random_block_structure

BENCH_LENGTHS = [1, 2, 3, 4, 5, 5, 15, 15, 15, 15]
BENCH_I = (0, 1, 3, 6, 10, 15, 20, 35, 50, 65, 80)


def test_benchmark_structure_indices():
    bs = from_block_lengths(BENCH_LENGTHS)
    assert bs.I == BENCH_I
    assert bs.N == 80 and bs.M == 10
    assert bs.lengths == tuple(BENCH_LENGTHS)


def test_unit_blocks():
    bs = from_block_lengths([1, 1, 1])
    assert bs.I == (0, 1, 2, 3)
    assert bs.lengths == (1, 1, 1)


def test_single_block():
    bs = from_block_lengths([80])
    assert bs.I == (0, 80) and bs.M == 1


def test_invalid_lengths():
    with pytest.raises(InvalidBlockStructureError):
        from_block_lengths([])
    with pytest.raises(InvalidBlockStructureError):
        from_block_lengths([2, 0, 1])
    with pytest.raises(InvalidBlockStructureError):
        from_block_lengths([2, -1])


def test_from_indices_round_trip():
    bs = from_block_indices(BENCH_I)
    assert bs.lengths == tuple(BENCH_LENGTHS)
    again = from_block_lengths(bs.lengths)
    assert again.I == bs.I


def test_structure_is_its_start_indices():
    bs = BlockStructure((0, 2, 5))
    assert [f.name for f in dataclasses.fields(bs)] == ["I"]
    assert bs == from_block_lengths([2, 3]) == from_block_indices([0, 2, 5])
    assert (bs.N, bs.M, bs.lengths) == (5, 2, (2, 3))
    for name in ("N", "M", "lengths"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bs, name, getattr(bs, name))


@pytest.mark.parametrize("I, message", [
    ((), "at least two entries"), ((0,), "at least two entries"),
    ((1, 3, 80), "must start at 0"), ((0, 3, 2, 80), "strictly increasing"),
    ((0, 0), "strictly increasing"),
])
def test_invalid_indices(I, message):
    for build in (BlockStructure, from_block_indices):
        with pytest.raises(InvalidBlockStructureError, match=message):
            build(I)


def test_block_of_examples():
    blocks = from_block_lengths(BENCH_LENGTHS).blocks
    assert len(blocks) == 80
    assert blocks[0] == 0
    assert blocks[34] == 6
    assert blocks[79] == 9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=12), st.data())
def test_block_of_matches_binary_search(lengths, data):
    bs = from_block_lengths(lengths)
    k = data.draw(st.integers(0, bs.N - 1))
    assert bs.blocks[k] == find_block(bs.I, k)


def test_build_T_unit_blocks_identity():
    bs = unit_blocks(4)
    assert np.array_equal(build_T(bs, 1), np.eye(4))


def test_build_T_small_example():
    bs = from_block_lengths([2, 1])
    T = build_T(bs, 1)
    assert np.array_equal(T, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_build_T_matches_kronecker():
    bs = from_block_lengths([2])
    T = build_T(bs, 2)
    assert T.shape == (4, 2)
    assert np.array_equal(T, kron_T([2], 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.integers(1, 3))
def test_T_column_blocks_orthogonal(lengths, nu):
    bs = from_block_lengths(lengths)
    T = build_T(bs, nu)
    gram = T.T @ T
    expect = np.kron(np.diag(np.array(lengths, dtype=float)), np.eye(nu))
    assert np.array_equal(gram, expect)
    assert np.array_equal(T, kron_T(lengths, nu))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.integers(1, 2))
def test_T_rows_select_owning_block(lengths, nu):
    bs = from_block_lengths(lengths)
    T = build_T(bs, nu)
    blocks = bs.blocks
    for k in range(bs.N):
        row_block = T[k * nu:(k + 1) * nu]
        j = blocks[k]
        assert np.array_equal(row_block[:, j * nu:(j + 1) * nu], np.eye(nu))
        mask = np.ones(bs.M * nu, dtype=bool)
        mask[j * nu:(j + 1) * nu] = False
        assert not row_block[:, mask].any()


def structure_constants_by_definition(bs):
    """The cached constants of ``bs``, written out entry by entry."""
    N, M, I = bs.N, bs.M, bs.I
    width = max(bs.lengths)
    blk = [find_block(I, k) for k in range(N)]
    rows = [list(range(I[j], I[j + 1])) + [N] * (width - bs.lengths[j]) for j in range(M)]
    return {"blocks": np.array(blk), "sum_rows": np.array(rows)}


def test_structure_constants_match_definition_and_are_read_only():
    rng = np.random.default_rng(11)
    cases = [[1], [9], [1] * 6] + [random_block_structure(rng, int(rng.integers(2, 20)))
                                   for _ in range(10)]
    for lengths in cases:  # N = 1, M = 1, unit blocks, then random partitions
        bs = from_block_lengths(lengths)
        for name, ref in structure_constants_by_definition(bs).items():
            got = getattr(bs, name)
            assert got is getattr(bs, name), name  # built once per structure
            assert got.shape == ref.shape and np.array_equal(got, ref), name
            with pytest.raises(ValueError):
                got[(0,) * got.ndim] = got[(0,) * got.ndim]
        # block_sums adds each block's rows first to last, like a loop from zero
        x = rng.standard_normal((bs.N, 2))
        ref = np.zeros((bs.M, 2))
        for j in range(bs.M):
            for k in range(bs.I[j], bs.I[j + 1]):
                ref[j] += x[k]
        assert np.array_equal(block_sums(x, bs), ref)
