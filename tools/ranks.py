"""Ranks of the reduced co-Hochschild complex, read only by the test suite.

`cohomology_rank` counts the dimension of one (k, ndeg) cohomology group
from the content blocks and differential matrices that `solve_coboundary`
uses; no command of the program needs it.
"""

from __future__ import annotations

from gammastack.cohomology import _cochain_blocks, _d_matrix_block
from gammastack.linalg import LinearSystem, solve_linear
from gammastack.tensors import Monomial


def _d_rank(k: int, cols: tuple[Monomial, ...]) -> int:
    rows = _d_matrix_block(k, cols)[1]
    return solve_linear(LinearSystem(len(cols), rows, [0] * len(rows))).rank


def cohomology_rank(dim: int, k: int, ndeg: int) -> int:
    """dim ker(d_k) - dim im(d_{k-1}) on the (k, ndeg) component."""
    dim_ker = 0
    for cols in _cochain_blocks(dim, k, ndeg).values():
        dim_ker += len(cols) - _d_rank(k, cols)
    rank_prev = 0
    if k >= 2:
        for cols in _cochain_blocks(dim, k - 1, ndeg).values():
            rank_prev += _d_rank(k - 1, cols)
    return dim_ker - rank_prev
