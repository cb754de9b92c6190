"""Co-Hochschild complex on reduced symmetric tensor powers.

The differential uses the standard cocommutative coproduct (multiset
splitting), so it is independent of brackets and preserves both total
degree and variable content.  All solves are done blockwise per content
vector, which keeps the exact elimination small.

The same matrices serve the enveloping-algebra quotients of the
admissibilization loop: for the cocommutative coproduct, splitting a
normal-ordered word is combinatorially identical to splitting the
corresponding symmetric monomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial

from gammastack.linalg import LinearSystem, Row, solve_linear
from gammastack.formal import cocommutative_splits
from gammastack.tensors import (
    Monomial,
    SparseTensor,
    _add_into,
    coproduct_slot,
    monomial_degree,
    slot_monomials,
    tensor_unit,
)


def _perm_sign(perm: tuple[int, ...]) -> int:
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def cohochschild_d(a: SparseTensor) -> SparseTensor:
    """d(a) = a^{2..k+1} + sum_i (-1)^i a^{1,..,(i i+1),..,k+1} + (-1)^{k+1} a^{1..k}."""
    k = a.slots
    terms = tensor_unit(a, 0)
    for i in range(1, k + 1):
        split = coproduct_slot(a, i - 1, cocommutative_splits, a.trunc)
        terms = terms + split.scale((-1) ** i)
    return terms + tensor_unit(a, k).scale((-1) ** (k + 1))


def alt(a: SparseTensor) -> SparseTensor:
    """Signed average over slot permutations, projected to multidegree (1,..,1)."""
    k = a.slots
    out: dict[Monomial, int] = {}
    for mono, c in a.num.items():
        if any(len(s) != 1 for s in mono):
            continue
        for perm in permutations(range(k)):
            target = tuple(mono[perm[i]] for i in range(k))
            _add_into(out, target, c * _perm_sign(perm))
    return SparseTensor._reduced(a.trunc, k, out, a.den * factorial(k))


# -- cochain bases -------------------------------------------------------------


def _content_key(mono: Monomial, dim: int) -> tuple[int, ...]:
    counts = [0] * dim
    for slot in mono:
        for i in slot:
            counts[i] += 1
    return tuple(counts)


@cache
def _cochain_blocks(dim: int, k: int, ndeg: int) -> dict[tuple[int, ...], tuple[Monomial, ...]]:
    """The k-cochain basis of degree ndeg, split by variable content.

    Each block lists its monomials in `slot_monomials` order: as matrix
    columns they choose the particular solution of `solve_coboundary`.
    Shared by every caller, who only reads it.
    """
    blocks: dict[tuple[int, ...], list[Monomial]] = {}
    for m in slot_monomials(dim, k, ndeg):
        blocks.setdefault(_content_key(m, dim), []).append(m)
    return {content: tuple(cols) for content, cols in blocks.items()}


class CoboundaryObstruction(Exception):
    """Raised when the requested class is not a coboundary."""

    def __init__(self, message: str, alt_class: SparseTensor):
        super().__init__(message)
        self.alt_class = alt_class


@cache
def _d_matrix_block(k: int, src: tuple[Monomial, ...]) -> tuple[dict[Monomial, int], list[Row]]:
    """Columns indexed by src monomials; rows by (k+1)-cochain monomials.

    Built once per (k, src) and shared by every caller, so callers only
    read the result; `solve_linear` copies the rows it is given.  The
    entries are ints: d of a unit monomial has denominator 1.  d preserves
    degree, so no truncation above a monomial's own degree changes its
    column.
    """
    row_index: dict[Monomial, int] = {}
    rows: list[Row] = []
    for j, mono in enumerate(src):
        img = cohochschild_d(SparseTensor(k, monomial_degree(mono), {mono: 1}))
        for m, c in img.num.items():
            if m not in row_index:
                row_index[m] = len(rows)
                rows.append({})
            rows[row_index[m]][j] = c
    return row_index, rows


def solve_coboundary(alpha: SparseTensor) -> SparseTensor:
    """Find beta with d(beta) = alpha, blockwise per variable content.

    alpha must be a reduced k-cochain; a non-homogeneous one is solved
    degree by degree and the solutions summed.  Raises
    CoboundaryObstruction carrying the alt projection when unsolvable.
    """
    k = alpha.slots
    if k < 2:
        raise ValueError("need at least a 2-cochain to solve for a coboundary")
    if not alpha.is_reduced():
        raise ValueError("alpha is not in the reduced subcomplex")
    degs = {monomial_degree(m) for m in alpha.num}
    if not degs:
        return SparseTensor.zero(k - 1, alpha.trunc)
    if len(degs) > 1:
        # split by degree and recurse
        total = SparseTensor.zero(k - 1, alpha.trunc)
        for d in sorted(degs):
            total = total + solve_coboundary(alpha.homogeneous_part(d))
        return total
    ndeg = degs.pop()
    if not cohochschild_d(alpha).is_zero():
        raise ValueError("alpha is not a cocycle")
    if ndeg == k:
        obstruction = alt(alpha)
        if not obstruction.is_zero():
            raise CoboundaryObstruction(
                f"nonzero alternating obstruction in degree {ndeg}", obstruction
            )
    dim = max((i + 1 for m in alpha.num for s in m for i in s), default=1)
    blocks = _cochain_blocks(dim, k - 1, ndeg)
    # d(beta) = the numerators of alpha, then beta over alpha's denominator:
    # the pivots depend on the matrix alone, so the solution is linear in
    # the right-hand side
    out: dict[Monomial, Fraction] = {}
    by_content: dict[tuple[int, ...], list[tuple[Monomial, int]]] = {}
    for m, c in alpha.num.items():
        by_content.setdefault(_content_key(m, dim), []).append((m, c))
    for content in sorted(by_content):
        cols = blocks.get(content, ())
        row_index, rows = _d_matrix_block(k - 1, cols)
        rhs = [0] * len(rows)
        for m, c in by_content[content]:
            if m not in row_index:
                raise CoboundaryObstruction("target outside the image of d", alt(alpha))
            rhs[row_index[m]] = c
        res = solve_linear(LinearSystem(len(cols), rows, rhs))
        if not res.solvable:
            raise CoboundaryObstruction(
                "inconsistent coboundary system", alt(alpha)
            )
        for j, c in enumerate(res.solution):
            if c:
                _add_into(out, cols[j], c)
    return SparseTensor(k - 1, alpha.trunc, out).scale(Fraction(1, alpha.den))
