"""Property tests for the sparse element core shared by SparseTensor and HElement.

Results of the core's arithmetic are stored without re-cleaning, so these
check that every operation keeps the stored form clean: no zeros, every key
within the bound of its space, and `Fraction` values in the `coeffs` view
(`test_int_core` checks the canonical int form behind it).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammastack.quantum import HElement, QueContext
from gammastack.tensors import SparseTensor, monomial_degree

from tools.bundled import to_series, trivial_que_base

DIM = 2
M, D = 3, 4
CTX = QueContext(trivial_que_base(), M, D)

PROPERTY = settings(max_examples=40, deadline=None)

coefficients = st.builds(
    Fraction, st.integers(-3, 3), st.integers(1, 3)
)
words = st.lists(st.integers(0, DIM - 1), max_size=3).map(lambda w: tuple(sorted(w)))


def tensor_dicts(slots: int, trunc: int):
    # monomials may pass the bound and coefficients may be 0: the public
    # constructor cleans both
    monos = st.tuples(*[words] * slots).filter(lambda m: monomial_degree(m) <= trunc + 1)
    return st.dictionaries(monos, coefficients, max_size=6)


@st.composite
def tensor_pairs(draw):
    slots = draw(st.integers(1, 3))
    trunc = draw(st.integers(1, 4))
    a, b = (SparseTensor(slots, trunc, draw(tensor_dicts(slots, trunc))) for _ in range(2))
    return a, b


def element_dicts(slots: int):
    keys = st.tuples(st.integers(0, M), st.tuples(*[words] * slots))
    return st.dictionaries(keys, coefficients, max_size=6)


@st.composite
def element_pairs(draw):
    slots = draw(st.integers(1, 2))
    a, b = (HElement(CTX, slots, draw(element_dicts(slots))) for _ in range(2))
    return a, b


def assert_clean_tensor(x: SparseTensor, slots: int, trunc: int):
    assert (x.slots, x.trunc) == (slots, trunc)
    for mono, c in x.coeffs.items():
        assert type(c) is Fraction and c != 0
        assert len(mono) == slots and monomial_degree(mono) <= trunc


def assert_clean_element(x: HElement, slots: int):
    assert x.ctx is CTX and x.slots == slots
    for (a, sl), c in x.coeffs.items():
        assert type(c) is Fraction and c != 0
        assert 0 <= a < M
        assert len(sl) == slots and monomial_degree(sl) <= D


@PROPERTY
@given(tensor_pairs(), coefficients)
def test_tensor_operations_store_clean_coefficients(pair, c):
    a, b = pair
    for x in (a, b, a + b, a - b, -a, a.scale(c), a.scale(0), a * b, a.homogeneous_part(2)):
        assert_clean_tensor(x, a.slots, a.trunc)


@PROPERTY
@given(element_pairs(), coefficients, st.integers(0, 2))
def test_element_operations_store_clean_coefficients(pair, c, k):
    a, b = pair
    for x in (a, b, a + b, a - b, -a, a.scale(c), a.scale(0), a * b, a.hbar_shift(k)):
        assert_clean_element(x, a.slots)
    assert_clean_element(a.hbar_shift(1).hbar_shift(-1), a.slots)
    assert_clean_element(CTX.coproduct_slot(a, a.slots - 1), a.slots + 1)


@PROPERTY
@given(tensor_pairs())
def test_tensor_add_sub_roundtrip_and_hash(pair):
    a, b = pair
    assert a + b - b == a
    reordered = SparseTensor(a.slots, a.trunc, dict(reversed(list(a.coeffs.items()))))
    for x, y in ((a + b - b, a), (reordered, a), (a.scale(0), a - a)):
        if x == y:
            assert hash(x) == hash(y)


@PROPERTY
@given(element_pairs())
def test_element_add_sub_roundtrip_and_hash(pair):
    a, b = pair
    assert a + b - b == a
    reordered = HElement(CTX, a.slots, dict(reversed(list(a.coeffs.items()))))
    for x, y in ((a + b - b, a), (reordered, a), (a.scale(0), a - a)):
        if x == y:
            assert hash(x) == hash(y)


@PROPERTY
@given(st.integers(1, 2).flatmap(lambda n: tensor_dicts(n, D).map(lambda d: (n, d))))
def test_series_roundtrip(slots_and_dict):
    slots, coeffs = slots_and_dict
    s = SparseTensor(slots, D, coeffs)
    assert to_series(CTX.from_series(s)) == s


@PROPERTY
@given(element_pairs(), st.integers(0, M))
def test_series_conversions_are_key_maps(pair, k):
    """The formal side's monomials are the quantum keys' words: from_series
    only prefixes the hbar power, and to_series inverts it at hbar^0."""
    x = pair[0].hbar_coefficient(0)
    s = to_series(x)
    assert s.coeffs == {sl: c for (_, sl), c in x.coeffs.items()}
    assert CTX.from_series(s) == x
    assert CTX.from_series(s, hbar=k).coeffs == ({(k, m): c for m, c in s.coeffs.items()} if k < M else {})


def test_public_constructors_reject_wrong_slot_count():
    with pytest.raises(ValueError):
        SparseTensor(2, 3, {((0,),): Fraction(1)})
    with pytest.raises(ValueError):
        HElement(CTX, 2, {(0, ((0,),)): Fraction(1)})


def test_sparse_tensor_rejects_a_slot_that_is_not_a_sorted_word():
    """A slot is a multiset spelled as its sorted word.  Accepted, e1 e0
    and e0 e1 were two keys of one monomial: the two tensors compared
    unequal, their difference was nonzero, and a product with e0 kept the
    unsorted key (0, 0, 1).  The check holds even for a term that is cut."""
    for slot in ((1, 0), (0, 2, 1)):
        with pytest.raises(ValueError, match="not a sorted word"):
            SparseTensor(1, 3, {(slot,): 1})
    with pytest.raises(ValueError, match="not a sorted word"):
        SparseTensor(2, 1, {((0,), (1, 0)): 1})
    a = SparseTensor(1, 3, {((0, 1),): 1})
    assert a == SparseTensor(1, 3, {((0, 1),): Fraction(1)})
    assert (a * SparseTensor.generator(0, 3)).coeffs == {((0, 0, 1),): 1}
