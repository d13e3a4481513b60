"""Input block-structure bookkeeping.

A block structure partitions the N shooting intervals into M contiguous
input blocks; all intervals in block j share one input value.  The
structure is stored as the start-index vector I of length M+1 with
I[0] = 0 and I[M] = N, so block j covers intervals [I[j], I[j+1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class InvalidBlockStructureError(ValueError):
    """Raised for block lengths/indices that do not form a valid partition."""


@dataclass(frozen=True)
class BlockStructure:
    """Partition of N shooting intervals into M input blocks, stored as its
    start indices I alone.  N, M, the lengths, each interval's block and the
    block-sum rows are cached properties, built once and shared read-only."""

    I: tuple[int, ...]

    def __post_init__(self):
        if len(self.I) < 2:
            raise InvalidBlockStructureError("index vector needs at least two entries")
        if self.I[0] != 0:
            raise InvalidBlockStructureError("index vector must start at 0")
        if any(b <= a for a, b in zip(self.I, self.I[1:])):
            raise InvalidBlockStructureError("index vector must be strictly increasing")

    @cached_property
    def N(self) -> int:
        return self.I[-1]

    @cached_property
    def M(self) -> int:
        return len(self.I) - 1

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.I, self.I[1:]))

    @cached_property
    def blocks(self) -> np.ndarray:
        """Block index of every interval k = 0..N-1."""
        return _frozen(np.repeat(np.arange(self.M), self.lengths))

    @cached_property
    def sum_rows(self) -> np.ndarray:
        """(M, max length) gather rows of ``block_sums``, padded with N (a zero row)."""
        pos = np.arange(max(self.lengths))
        start = np.asarray(self.I[:-1])[:, None]
        return _frozen(np.where(pos < np.asarray(self.lengths)[:, None], start + pos, self.N))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def from_block_lengths(lengths) -> BlockStructure:
    """Build a block structure from per-block interval counts.

    The start indices are the prefix sums of the lengths.
    """
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise InvalidBlockStructureError("block length sequence is empty")
    if any(n < 1 for n in lengths):
        raise InvalidBlockStructureError(f"block lengths must be >= 1, got {lengths}")
    I = [0]
    for n in lengths:
        I.append(I[-1] + n)
    return BlockStructure(tuple(I))


def from_block_indices(indices) -> BlockStructure:
    """Build a block structure from the start-index vector I (including both endpoints)."""
    return BlockStructure(tuple(int(i) for i in indices))


def unit_blocks(N: int) -> BlockStructure:
    """Identity parameterization: one block per interval."""
    return from_block_lengths([1] * N)


def block_sums(x: np.ndarray, bs: BlockStructure) -> np.ndarray:
    """Sum the rows of x (N, ...) over the blocks of ``bs``: (M, ...).

    Each block's rows are added from its first interval to its last, so the
    sums round like a loop accumulating from zero (``np.add.reduceat`` adds
    a block's first row last).
    """
    padded = np.concatenate([x, np.zeros((1,) + x.shape[1:])])[bs.sum_rows]
    return np.add.accumulate(padded, axis=1)[:, -1]


def build_T(bs: BlockStructure, nu: int) -> np.ndarray:
    """Explicit selection matrix T with u = T @ u_blocked.

    Column block j holds lengths[j] vertically stacked nu x nu identity
    matrices.  Only used on the oracle/test path; the solver never forms T.
    """
    T = np.zeros((bs.N * nu, bs.M * nu))
    eye = np.eye(nu)
    for j in range(bs.M):
        for k in range(bs.I[j], bs.I[j + 1]):
            T[k * nu:(k + 1) * nu, j * nu:(j + 1) * nu] = eye
    return T
