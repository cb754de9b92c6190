"""The int-numerator core of the sparse elements against a Fraction oracle.

Every `SparseTensor`, `HElement` and `CrossedElement` stores int numerators
over one denominator in canonical form.  Each kernel that sums in int is
checked here against the same sum written over `Fraction` with `_add_into`,
the way the kernels summed before: values and key order must agree, and
every result must be canonical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammastack.formal import PairingContext, build_delta_gamma, cocommutative_splits, tensor2_to_series
from gammastack.quantum import HElement, QueContext
from gammastack.stack import AlgebraMap, _Memo, lift_twist, twist_defect, verify_twist_equation
from gammastack.tensors import (
    SparseTensor,
    _add_into,
    coproduct_slot,
    merge_slot,
    monomial_degree,
    tensor_unit,
)

from conftest import assert_canonical, axb_gamma, fraction_coproduct_word, tuple_pair_bracket

F = Fraction
PROPERTY = settings(max_examples=40, deadline=None)

DIM = 2
TRUNC = 4
G = axb_gamma()
# the deformed cobracket at the non-identity element: both coproduct and
# bracket carry denominators
PCTX = PairingContext(build_delta_gamma(G, 1), TRUNC)
M, D = 3, 4
QCTX = QueContext(G, M, D)

# zero, negative and non-integer values over pairwise coprime denominators
coefficients = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))
words = st.lists(st.integers(0, DIM - 1), max_size=3).map(lambda w: tuple(sorted(w)))


def tensors(slots: int, min_degree: int = 0):
    monos = st.tuples(*[words] * slots).filter(lambda m: min_degree <= monomial_degree(m) <= TRUNC)
    return st.dictionaries(monos, coefficients, max_size=6).map(lambda d: SparseTensor(slots, TRUNC, d))


def elements(slots: int):
    keys = st.tuples(st.integers(0, M - 1), st.tuples(*[words] * slots))
    return st.dictionaries(keys, coefficients, max_size=5).map(lambda d: HElement(QCTX, slots, d))


def agrees(got, oracle: dict) -> bool:
    """got is canonical and holds the oracle's values in the oracle's key order."""
    assert_canonical(got)
    return list(got.coeffs.items()) == list(oracle.items())


# -- the Fraction oracles -----------------------------------------------------------------


def f_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        _add_into(out, k, sign * c)
    return out


def f_mul(a: SparseTensor, b: SparseTensor) -> dict:
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            if monomial_degree(m1) + monomial_degree(m2) <= a.trunc:
                _add_into(out, tuple(merge_slot(s, t) for s, t in zip(m1, m2)), c1 * c2)
    return out


def f_coproduct_slot(a: SparseTensor, idx: int, split) -> dict:
    out: dict = {}
    for mono, c in a.coeffs.items():
        for (left, right), c2 in split(mono[idx]).items():
            key = mono[:idx] + (left, right) + mono[idx + 1 :]
            if monomial_degree(key) <= a.trunc:
                _add_into(out, key, c * c2)
    return out


def f_poisson(ctx: PairingContext, a: SparseTensor, b: SparseTensor) -> dict:
    """The pair brackets are the tuple kernel's over the context's 1-slot
    brackets (int numerators over its bracket lcm); the sum over the pairs
    runs in Fraction."""
    pair = tuple_pair_bracket(ctx)
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            if monomial_degree(m1) + monomial_degree(m2) > ctx.trunc + 1:
                continue
            for m, n in pair(m1, m2):
                _add_into(out, m, c1 * c2 * F(n, ctx._bracket_lcm))
    return out


def f_apply(jmap: AlgebraMap, s: SparseTensor) -> dict:
    out: dict = {}
    for mono, c in s.coeffs.items():
        parts = [((), c)]
        for word in mono:
            image = jmap.image_of_word(word).coeffs.items()
            parts = [
                (slots + m, cc * c2)
                for slots, cc in parts
                for m, c2 in image
                if monomial_degree(slots + m) <= jmap.trunc
            ]
        for slots, cc in parts:
            _add_into(out, slots, cc)
    return out


def f_qmul(x: dict, y: dict) -> dict:
    """The slotwise product of two {(hbar power, words): Fraction} dicts in
    U(g)[[hbar]], cut at hbar^M and PBW degree D."""
    out: dict = {}
    for (a1, sl1), c1 in x.items():
        for (a2, sl2), c2 in y.items():
            if a1 + a2 >= M:
                continue
            parts = [((), c1 * c2)]
            for s1, s2 in zip(sl1, sl2):
                prods = QCTX.lba.straighten(s1 + s2).items()
                parts = [(done + (w,), c * cw) for done, c in parts for w, cw in prods]
            for sl, c in parts:
                if monomial_degree(sl) <= D:
                    _add_into(out, (a1 + a2, sl), c)
    return out


def f_apply_endo(images: list[HElement], x: HElement) -> dict:
    word_images: dict = {(): {(0, ((),)): F(1)}}

    def image(word):
        if word not in word_images:
            word_images[word] = f_qmul(image(word[:-1]), images[word[-1]].coeffs)
        return word_images[word]

    out: dict = {}
    for (a, sl), c in x.coeffs.items():
        parts = [(a, (), c)]
        for w in sl:
            parts = [
                (aa + b, done + sl2, cc * c2)
                for aa, done, cc in parts
                for (b, sl2), c2 in image(w).items()
                if aa + b < M and monomial_degree(done + sl2) <= D
            ]
        for aa, sl2, cc in parts:
            _add_into(out, (aa, sl2), cc)
    return out


# -- properties ------------------------------------------------------------------------------


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(tensors(n), tensors(n))), coefficients)
def test_linear_operations_equal_fraction_oracle(pair, c):
    a, b = pair
    fa, fb = a.coeffs, b.coeffs
    assert agrees(a, fa) and agrees(b, fb)
    assert agrees(a + b, f_add(fa, fb))
    assert agrees(a - b, f_add(fa, fb, -1))
    assert agrees(-a, {k: -v for k, v in fa.items()})
    for s in (c, F(0), F(-3, 7), 5, -1):
        assert agrees(a.scale(s), {k: s * v for k, v in fa.items()} if s else {})
    for deg in range(TRUNC + 1):
        assert agrees(a.homogeneous_part(deg), {m: v for m, v in fa.items() if monomial_degree(m) == deg})
    for pos in range(a.slots + 1):
        assert agrees(tensor_unit(a, pos), {m[:pos] + ((),) + m[pos:]: v for m, v in fa.items()})
    back = a + b - b
    assert back == a and hash(back) == hash(a)
    assert agrees(a - a, {}) and a - a == a.scale(0)


@PROPERTY
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(tensors(n), tensors(n))))
def test_products_and_coproducts_equal_fraction_oracle(pair):
    a, b = pair
    assert agrees(a * b, f_mul(a, b))
    split = partial(fraction_coproduct_word, PCTX)
    for idx in range(a.slots):
        assert agrees(PCTX.coproduct_slot(a, idx), f_coproduct_slot(a, idx, split))
        assert agrees(
            coproduct_slot(a, idx, cocommutative_splits, TRUNC), f_coproduct_slot(a, idx, cocommutative_splits)
        )


@PROPERTY
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(tensors(n), tensors(n))))
def test_poisson_equals_fraction_oracle(pair):
    a, b = pair
    assert agrees(PCTX.poisson(a, b), f_poisson(PCTX, a, b))


@PROPERTY
@given(st.lists(tensors(1, min_degree=2), min_size=DIM, max_size=DIM), st.integers(1, 2).flatmap(tensors))
def test_algebra_map_apply_equals_fraction_oracle(extra, s):
    # images e_i + (terms of degree >= 2), as build_iso makes them
    images = [SparseTensor.generator(i, TRUNC) + e for i, e in enumerate(extra)]
    jmap = AlgebraMap(images, TRUNC)
    assert agrees(jmap.apply(s), f_apply(jmap, s))


@PROPERTY
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(elements(n), elements(n))), st.lists(elements(1), min_size=2, max_size=2))
def test_quantum_kernels_equal_fraction_oracle(pair, images):
    x, y = pair
    assert agrees(x + y, f_add(x.coeffs, y.coeffs))
    assert agrees(QCTX.mul(x, y), f_qmul(x.coeffs, y.coeffs))
    assert agrees(QCTX.apply_endo(images, x), f_apply_endo(images, x))
    back = x + y - y
    assert back == x and hash(back) == hash(x)


def test_cancelled_key_comes_back_last():
    """(x + y + 1)(y - x + xy) in S(g): x*y adds the key xy, y*(-x) cancels
    it, and 1*xy adds it again, after every other key."""
    x, y, one = (0,), (1,), ()
    a = SparseTensor(1, TRUNC, {(x,): F(1, 2), (y,): F(1, 3), (one,): 1})
    b = SparseTensor(1, TRUNC, {(y,): F(3), (x,): F(-9, 2), ((0, 1),): F(5, 7)})
    got = a * b
    assert agrees(got, f_mul(a, b))
    assert list(got.num)[-1] == ((0, 1),)
    # and through the quantum product, in U(g) with [x, y] = x
    qa, qb = (HElement(QCTX, 1, {(0, k): c for k, c in t.coeffs.items()}) for t in (a, b))
    assert agrees(QCTX.mul(qa, qb), f_qmul(qa.coeffs, qb.coeffs))


# -- equality sees the space ------------------------------------------------------------------


def test_equality_compares_the_space():
    c = {((0,),): F(1, 2), ((0, 1),): F(3)}
    s4, s6 = SparseTensor(1, 4, c), SparseTensor(1, 6, c)
    assert s4 != s6 and s4 == SparseTensor(1, 4, c)
    with pytest.raises(ValueError):
        s4 + s6
    other = QueContext(G, M, D)
    assert HElement(QCTX, 1, {(0, ((0,),)): 1}) != HElement(other, 1, {(0, ((0,),)): 1})
    # a memo keyed by value keeps series of two truncations apart, and two
    # equal series built apart share one evaluation
    memo, seen = _Memo(), []

    def trunc(s):
        seen.append(s)
        return s.trunc

    assert memo(trunc, s4) == 4
    assert memo(trunc, s6) == 6
    assert memo(trunc, SparseTensor(1, 4, c)) == 4
    assert len(seen) == 2 and seen[0] is s4 and seen[1] is s6


# -- the hot path builds no per-term Fraction -------------------------------------------------


def _count_fractions(monkeypatch, fn, *args) -> int:
    calls = [0]
    original = Fraction.__new__

    def counting(cls, *a, **k):
        calls[0] += 1
        return original(cls, *a, **k)

    fn(*args)  # warm the caches: the BCH tables and the pair brackets
    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        fn(*args)
    finally:
        monkeypatch.undo()
    return calls[0]


def test_twist_kernels_build_no_per_term_fraction(monkeypatch):
    """One twist_defect and one verify_twist_equation of an axb lift at N=5.

    Before the int core these built 683 and 1142 Fractions (CPython 3.11),
    one or more per term.  Now only the Bernoulli kernel's per-degree scalars
    are built, so the count does not change when the input gains terms.
    """
    N = 5
    ctx = PairingContext(build_delta_gamma(G, G.group.identity), N)
    lift = lift_twist(ctx, tensor2_to_series(G.f[1], N).scale(F(1, 2)))
    bigger = lift + SparseTensor(2, N, {((0,), (0, 1, 1)): F(2, 3), ((1, 1), (0, 1)): F(-5, 7)})
    assert len(bigger.num) > len(lift.num)
    for fn, bound in ((twist_defect, 0), (verify_twist_equation, 20)):
        counts = [_count_fractions(monkeypatch, fn, ctx, f) for f in (lift, bigger)]
        assert counts[0] == counts[1] <= bound
