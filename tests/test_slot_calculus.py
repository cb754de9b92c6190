"""The tensor-slot calculus: two primitives (`tensors.tensor_unit` inserts a
unit slot, `tensors.coproduct_slot` splits one slot in two) for the
insertions of the twist equation, the gauge action and the co-Hochschild
differential, the slotwise word-image loop of `AlgebraMap.apply`, and one
k-slot monomial enumerator.

Each is checked against a test-local copy of the code it replaced, values and
dict key order both.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammastack.cohomology import cohochschild_d
from gammastack.formal import PairingContext, build_delta_gamma, cocommutative_splits
from gammastack.stack import AlgebraMap
from gammastack.tensors import (
    SparseTensor,
    _add_into,
    coproduct_slot,
    merge_slot,
    monomial_key,
    slot_monomials,
    tensor_unit,
    unit_monomial,
)

from conftest import axb_gamma, fraction_coproduct_word, sl2_weyl_gamma

F = Fraction


# -- the replaced code, kept here as the oracle -----------------------------------


def old_iterated_coproduct_word(ctx, word, k):
    if k == 1:
        return {(word,): F(1)}
    out = {}
    for slots, c in old_iterated_coproduct_word(ctx, word, k - 1).items():
        base_deg = sum(len(s) for s in slots[:-1])
        for (a, b), c2 in fraction_coproduct_word(ctx, slots[-1]).items():
            if base_deg + len(a) + len(b) > ctx.trunc:
                continue
            _add_into(out, slots[:-1] + (a, b), c * c2)
    return out


def old_insert(ctx, a, subsets, n):
    out = {}
    for mono, c in a.coeffs.items():
        parts = [(unit_monomial(n), c)]
        for slot_word, sub in zip(mono, subsets):
            expanded = old_iterated_coproduct_word(ctx, slot_word, len(sub)) if sub else {}
            if not sub:
                if slot_word:
                    parts = []
                    break
                continue
            nxt = []
            for target, cc in parts:
                for words, c2 in expanded.items():
                    lst = list(target)
                    deg = sum(len(s) for s in lst)
                    for pos, w in zip(sub, words):
                        lst[pos - 1] = merge_slot(lst[pos - 1], w)
                        deg += len(w)
                    if deg <= ctx.trunc:
                        nxt.append((tuple(lst), cc * c2))
            parts = nxt
        for m, cc in parts:
            _add_into(out, m, cc)
    return out


def old_iterated_splits(word, k):
    if k == 1:
        return {(word,): 1}
    out = {}
    for prev, m in old_iterated_splits(word, k - 1).items():
        for (a, b), m2 in cocommutative_splits(prev[-1]).items():
            key = prev[:-1] + (a, b)
            out[key] = out.get(key, 0) + m * m2
    return out


def old_insert_cocommutative(a, subsets, n):
    out = {}
    for mono, c in a.coeffs.items():
        parts = [([() for _ in range(n)], c)]
        for word, sub in zip(mono, subsets):
            if not sub:
                if word:
                    parts = []
                    break
                continue
            if len(sub) == 1:
                for slots, _ in parts:
                    slots[sub[0] - 1] = tuple(sorted(slots[sub[0] - 1] + word))
                continue
            splits = old_iterated_splits(word, len(sub))
            nxt = []
            for slots, cc in parts:
                for words, mult in splits.items():
                    slots2 = list(slots)
                    for pos, w in zip(sub, words):
                        slots2[pos - 1] = tuple(sorted(slots2[pos - 1] + w))
                    nxt.append((slots2, cc * mult))
            parts = nxt
        for slots, cc in parts:
            _add_into(out, tuple(slots), cc)
    return out


def old_cohochschild_d(a):
    """The differential as the sum of its k + 2 cocommutative insertions."""
    k = a.slots
    n = k + 1

    def insert(subsets):
        return SparseTensor(n, a.trunc, old_insert_cocommutative(a, tuple(subsets), n))

    terms = insert((i,) for i in range(2, k + 2))
    for i in range(1, k + 1):
        subsets = []
        for j in range(1, k + 1):
            if j < i:
                subsets.append((j,))
            elif j == i:
                subsets.append((i, i + 1))
            else:
                subsets.append((j + 1,))
        terms = terms + insert(subsets).scale((-1) ** i)
    last = insert((i,) for i in range(1, k + 1))
    return terms + last.scale((-1) ** (k + 1))


def old_algebra_map_apply(jmap, s):
    out = {}
    n = s.slots
    for mono, c in s.coeffs.items():
        parts = [(tuple(() for _ in range(n)), c)]
        for sl, word in enumerate(mono):
            if not word:
                continue
            img = jmap.image_of_word(word)
            nxt = []
            for target, cc in parts:
                base = sum(len(x) for x in target)
                for (w,), c2 in img.coeffs.items():
                    if base + len(w) > jmap.trunc:
                        continue
                    lst = list(target)
                    lst[sl] = tuple(sorted(lst[sl] + w))
                    nxt.append((tuple(lst), cc * c2))
            parts = nxt
        for m, cc in parts:
            _add_into(out, m, cc)
    return out


def words_of(dim, d):
    return list(combinations_with_replacement(range(dim), d))


def old_cochain_basis(dim, k, ndeg):
    out = []

    def rec(slots, remaining, slots_left):
        if slots_left == 0:
            if remaining == 0:
                out.append(slots)
            return
        for d in range(1, remaining - slots_left + 2):
            for w in words_of(dim, d):
                rec(slots + (w,), remaining - d, slots_left - 1)

    rec((), ndeg, k)
    out.sort(key=monomial_key)
    return out


def old_all_2slot_monos(dim, deg):
    return [
        (w1, w2)
        for d1 in range(deg + 1)
        for w1 in words_of(dim, d1)
        for w2 in words_of(dim, deg - d1)
    ]


def old_reduced_2slot_words(dim, max_total):
    out = [
        (w1, w2)
        for p in range(1, max_total)
        for q in range(1, max_total - p + 1)
        for w1 in words_of(dim, p)
        for w2 in words_of(dim, q)
    ]
    out.sort()
    return out


# -- random operands ----------------------------------------------------------------

_contexts: dict = {}


def context(name, gamma, N):
    key = (name, gamma, N)
    if key not in _contexts:
        G = axb_gamma() if name == "axb" else sl2_weyl_gamma()
        _contexts[key] = PairingContext(build_delta_gamma(G, gamma), N)
    return _contexts[key]


@st.composite
def slot_operands(draw):
    """A context of axb or sl2-weyl, a random series on 1-4 slots (empty
    slots and the unit included) and the generator images of an algebra map."""
    name = draw(st.sampled_from(["axb", "sl2-weyl"]))
    gamma = draw(st.integers(0, 1))
    N = draw(st.integers(2, 5) if name == "axb" else st.integers(2, 4))
    ctx = context(name, gamma, N)
    dim = ctx.dim
    m = draw(st.integers(1, 4))

    def word(k):
        return tuple(sorted(draw(st.lists(st.integers(0, dim - 1), min_size=k, max_size=k))))

    def monomial():
        total = draw(st.integers(0, N))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)))
        lengths = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
        return tuple(word(k) for k in lengths)

    terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=5))
    a = SparseTensor(m, N, {monomial(): F(p, q) for p, q in terms})

    images = []
    for i in range(dim):
        extra = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)), max_size=3))
        coeffs = {((i,),): F(1)}
        for p, q in extra:
            coeffs[(word(draw(st.integers(1, N))),)] = F(p, q)
        images.append(SparseTensor(1, N, coeffs))
    return ctx, a, AlgebraMap(images, N)


def terms(s):
    return list(s.coeffs.items())


@given(slot_operands())
@settings(max_examples=120, deadline=None)
def test_slot_primitives_equal_the_replaced_loops(operands):
    """Delta at one slot (deformed and cocommutative), the unit slot, the
    co-Hochschild differential and AlgebraMap.apply equal the loops they
    replaced, in values and in dict key order.  Delta at slot idx is the
    old insertion at subsets (1,), ..., (idx+1, idx+2), ..., (m+1,), and a
    unit slot at pos is the old insertion that skips target slot pos+1."""
    ctx, a, jmap = operands
    m = a.slots
    n = m + 1
    for idx in range(m):
        subsets = tuple((j + 1,) for j in range(idx)) + ((idx + 1, idx + 2),)
        subsets += tuple((j + 2,) for j in range(idx + 1, m))
        got = ctx.coproduct_slot(a, idx)
        assert terms(got) == list(old_insert(ctx, a, subsets, n).items())
        assert got.trunc == ctx.trunc and got.slots == n
        got = coproduct_slot(a, idx, cocommutative_splits, a.trunc)
        assert terms(got) == list(old_insert_cocommutative(a, subsets, n).items())
    for pos in range(n):
        subsets = tuple((j + 1 if j < pos else j + 2,) for j in range(m))
        got = tensor_unit(a, pos)
        assert terms(got) == list(old_insert(ctx, a, subsets, n).items())
        assert terms(got) == list(old_insert_cocommutative(a, subsets, n).items())
        assert got.trunc == a.trunc and got.slots == n

    assert terms(cohochschild_d(a)) == terms(old_cohochschild_d(a))
    assert terms(jmap.apply(a)) == list(old_algebra_map_apply(jmap, a).items())


@pytest.mark.parametrize("name, gamma, N", [("axb", 1, 5), ("sl2-weyl", 1, 4)])
def test_iterated_coproduct_equals_replaced_recursions(name, gamma, N):
    """Delta of a word at one slot, with the deformed coproduct and with the
    multiset split, equals the k = 2 step of the two recursions it
    replaced, key order included."""
    ctx = context(name, gamma, N)
    for w in (w for d in range(N + 1) for w in words_of(ctx.dim, d)):
        a = ctx.series({(w,): F(1)})
        got = ctx.coproduct(a)
        assert terms(got) == list(old_iterated_coproduct_word(ctx, w, 2).items())
        got = coproduct_slot(a, 0, cocommutative_splits, N)
        assert terms(got) == list(old_iterated_splits(w, 2).items())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slot_monomials_equal_replaced_enumerators(dim):
    """slot_monomials yields the cochain basis and the 2-slot monomials in
    their old order, and the reduced 2-slot words after the call-site sort."""
    for deg in range(0, 6):
        for k in range(1, 4):
            assert slot_monomials(dim, k, deg) == old_cochain_basis(dim, k, deg)
        assert slot_monomials(dim, 2, deg, least=0) == old_all_2slot_monos(dim, deg)
    for max_total in range(1, 6):
        got = sorted(m for d in range(2, max_total + 1) for m in slot_monomials(dim, 2, d))
        assert got == old_reduced_2slot_words(dim, max_total)
