from __future__ import annotations

import random
from copy import deepcopy
from fractions import Fraction
from math import comb

import pytest

from gammastack.cohomology import (
    CoboundaryObstruction,
    _cochain_blocks,
    _d_matrix_block,
    alt,
    cohochschild_d,
    solve_coboundary,
)
from gammastack.formal import cocommutative_splits
from gammastack.tensors import SparseTensor, coproduct_slot, slot_monomials, tensor_unit

from tools.ranks import cohomology_rank

F = Fraction


def series(slots, trunc, coeffs):
    return SparseTensor(slots, trunc, coeffs)


def test_primitive_is_cocycle():
    x = series(1, 3, {((0,),): F(1)})
    assert cohochschild_d(x).is_zero()


def test_d_squared_zero_random():
    rng = random.Random(4)
    for dim, k in ((2, 1), (2, 2), (3, 2)):
        basis = slot_monomials(dim, k, 3)
        for _ in range(5):
            coeffs = {m: F(rng.randint(-3, 3)) for m in rng.sample(basis, min(4, len(basis)))}
            a = series(k, 6, coeffs)
            assert cohochschild_d(cohochschild_d(a)).is_zero()


def test_d_preserves_degree_and_reducedness():
    a = series(2, 5, {(((0, 1)), ((1,))): F(1)})
    d = cohochschild_d(a)
    assert d.is_reduced()
    assert {3} == {sum(len(s) for s in m) for m in d.coeffs}


def test_pentagon_identity_shape():
    """d(a) = 0 for a 3-cochain is exactly the five-term insertion identity."""
    def split(a, idx):
        return coproduct_slot(a, idx, cocommutative_splits, a.trunc)

    rng = random.Random(8)
    basis = slot_monomials(2, 3, 4)
    a = series(3, 8, {m: F(rng.randint(-2, 2)) for m in rng.sample(basis, 5)})
    d = cohochschild_d(a)
    five = (
        split(a, 0)  # a^{12,3,4}
        + split(a, 2)  # a^{1,2,34}
        - tensor_unit(a, 0)  # a^{2,3,4}
        - split(a, 1)  # a^{1,23,4}
        - tensor_unit(a, 3)  # a^{1,2,3}
    )
    assert d == five.scale(-1)


def test_alt_on_symmetric_is_zero():
    a = series(2, 2, {(((0,)), ((1,))): F(1), (((1,)), ((0,))): F(1)})
    assert alt(a).is_zero()


def test_alt_antisymmetrizes():
    a = series(2, 2, {(((0,)), ((1,))): F(1), (((1,)), ((0,))): F(-1)})
    out = alt(a)
    assert out == a  # already antisymmetric, average fixes it


def test_alt_projects_multidegree():
    a = series(2, 3, {(((0, 0)), ((1,))): F(5), (((0,)), ((1,))): F(2)})
    out = alt(a)
    assert out.coeffs == {((0,), (1,)): F(1), ((1,), (0,)): F(-1)}


def test_solve_coboundary_zero():
    z = SparseTensor.zero(2, 4)
    assert solve_coboundary(z).is_zero()


def test_solve_coboundary_roundtrip():
    rng = random.Random(12)
    for dim, k, ndeg in ((2, 1, 3), (2, 2, 3), (3, 1, 2), (2, 2, 4)):
        basis = slot_monomials(dim, k, ndeg)
        for _ in range(4):
            beta0 = series(
                k, ndeg, {m: F(rng.randint(-2, 2)) for m in rng.sample(basis, min(3, len(basis)))}
            )
            target = cohochschild_d(beta0)
            if target.is_zero():
                continue
            beta = solve_coboundary(target)
            assert cohochschild_d(beta) == target


def test_solve_coboundary_splits_a_non_homogeneous_cocycle():
    """alpha = d(beta_2 + beta_3) is solved degree by degree: the result is
    the sum of the two homogeneous solves and has d(beta) = alpha."""
    beta2 = series(1, 4, {((0, 1),): F(1), ((1, 1),): F(-2)})
    beta3 = series(1, 4, {((0, 0, 1),): F(3), ((0, 1, 1),): F(1)})
    alpha = cohochschild_d(beta2 + beta3)
    assert {sum(len(s) for s in m) for m in alpha.coeffs} == {2, 3}
    beta = solve_coboundary(alpha)
    assert cohochschild_d(beta) == alpha
    parts = [solve_coboundary(alpha.homogeneous_part(d)) for d in (2, 3)]
    assert beta == parts[0] + parts[1]


def test_solve_coboundary_randomized_still_valid():
    basis = slot_monomials(2, 1, 3)
    beta0 = series(1, 3, {basis[0]: F(2), basis[1]: F(-1)})
    target = cohochschild_d(beta0)
    b1 = solve_coboundary(target)
    assert cohochschild_d(b1) == target


def test_obstruction_witness():
    # alpha = d(beta0) + full antisymmetrization of x(x)y(x)z in dim 3
    rng = random.Random(5)
    basis = slot_monomials(3, 2, 3)
    beta0 = series(2, 3, {m: F(rng.randint(-2, 2)) for m in rng.sample(basis, 4)})
    from itertools import permutations

    anti = {}
    for perm in permutations((0, 1, 2)):
        sign = 1
        p = list(perm)
        # count inversions
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        sign = (-1) ** inv
        anti[(((perm[0],)), ((perm[1],)), ((perm[2],)))] = F(sign)
    alpha = cohochschild_d(beta0) + series(3, 3, anti)
    assert cohochschild_d(alpha).is_zero()  # antisymmetric part is a cocycle
    with pytest.raises(CoboundaryObstruction) as exc:
        solve_coboundary(alpha)
    assert not exc.value.alt_class.is_zero()


def test_cohomology_rank_top_alternating():
    # the k-th cohomology is wedge^k(g), concentrated in degree k
    assert cohomology_rank(2, 2, 2) == 1
    assert cohomology_rank(2, 1, 1) == 2
    assert cohomology_rank(3, 2, 2) == 3
    assert cohomology_rank(3, 3, 3) == 1


def test_cohomology_rank_wedge_dimension_and_vanishing():
    for dim in (2, 3):
        for k in (1, 2, 3):
            assert cohomology_rank(dim, k, k) == comb(dim, k)
            for ndeg in range(k + 1, 7):
                assert cohomology_rank(dim, k, ndeg) == 0, (dim, k, ndeg)


def test_solves_leave_the_shared_d_rows_untouched():
    """The cached d matrices are shared by every solve; only the solver's
    own copy of their rows is eliminated."""
    blocks = [
        _d_matrix_block(k, cols) for k in (1, 2) for cols in _cochain_blocks(2, k, 3).values()
    ]
    before = deepcopy(blocks)
    basis = slot_monomials(2, 2, 3)
    alpha = cohochschild_d(series(2, 3, {m: F(i + 1) for i, m in enumerate(basis)}))
    assert not alpha.is_zero()
    assert cohochschild_d(solve_coboundary(alpha)) == alpha
    assert cohomology_rank(2, 2, 3) == 0
    assert blocks == before


@pytest.mark.parametrize("dim, k, ndeg", [(2, 1, 3), (2, 2, 4), (3, 2, 3), (3, 3, 5), (2, 4, 6)])
def test_cochain_blocks_keep_basis_order(dim, k, ndeg):
    """Each content block lists its columns as the enumerated basis did,
    split by content in first-seen order: the column order picks the
    particular solution, and with it the certificate bytes."""
    blocks: dict = {}
    for m in slot_monomials(dim, k, ndeg):
        content = tuple(sum(i == v for slot in m for i in slot) for v in range(dim))
        blocks.setdefault(content, []).append(m)
    expected = [(content, tuple(cols)) for content, cols in blocks.items()]
    assert list(_cochain_blocks(dim, k, ndeg).items()) == expected
