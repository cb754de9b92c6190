"""QueContext's products, coproducts, counits and endomorphisms, and the
semidirect product, against the loops they replaced.

Two kernels take slotwise products of tables with the hbar/PBW cut:
`_slot_product` loops over the term pairs of `mul` and
`SemidirectBialgebra.product`, and `HElement.spread` sums the terms of the
one-operand maps `coproduct_slot`, `counit_slot` and `apply_endo`.  The
oracles below are the per-operation loops that came before them, written
over the Lie algebra's straightening directly; values and key order must
agree, and every result must be canonical and within the truncation.  `mul`
takes plain elements only (`CrossedElement`s, whose slots carry group
labels, are the semidirect product's); the counit takes both.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammastack.liealg import FiniteGroup, GammaLieBialgebra, LieBialgebra
from gammastack.quantum import CrossedElement, HElement, QueContext, SemidirectBialgebra, _slot_product
from gammastack.tensors import _add_into, monomial_degree

from tools.bundled import abelian_que_data, sl2_que_data, trivial_que_data

from conftest import quantum_terms as terms

D = 4
ZERO, ONE = Fraction(0), Fraction(1)
# the ambient coproducts of three data sets, at M = 2 and 3: both cut
# products of mixed hbar powers
DATASETS = {"trivial": trivial_que_data, "abelian": abelian_que_data, "sl2": sl2_que_data}
CASES = [(name, M) for name in DATASETS for M in (2, 3)]

PROPERTY = settings(max_examples=12, deadline=None)
# both kernels run a term of one table, of two tables and of any other count
# (a scalar's none) as three loop shapes; every operation is checked on each
SLOTS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def contexts():
    out = {}
    for name, maker in DATASETS.items():
        base = maker(3, D).ctx
        coproduct = {i: img.coeffs for i, img in enumerate(base.delta_images)}
        for M in (2, 3):
            out[(name, M)] = QueContext(base.G, M, D, coproduct)
    return out


# -- the loops the kernels replaced -----------------------------------------------------------


def oracle_mul(ctx, x, y):
    out = {}
    for (a1, sl1), c1 in x.coeffs.items():
        for (a2, sl2), c2 in y.coeffs.items():
            a = a1 + a2
            if a >= ctx.M:
                continue
            parts = [((), c1 * c2)]
            for s1, s2 in zip(sl1, sl2):
                prods = ctx.lba.straighten(s1 + s2)
                parts = [(done + (s,), c * cs) for done, c in parts for s, cs in prods.items()]
            for sl, c in parts:
                if monomial_degree(sl) <= ctx.D:
                    _add_into(out, (a, sl), c)
    return HElement(ctx, x.slots, out)


def oracle_word_image(ctx, images, slots, word):
    out = ctx.unit(slots)
    for letter in word:
        out = oracle_mul(ctx, out, images[letter])
    return out


def oracle_coproduct_slot(ctx, x, idx):
    out = {}
    for (a, sl), c in x.coeffs.items():
        for (a2, pair), c2 in oracle_word_image(ctx, ctx.delta_images, 2, sl[idx]).coeffs.items():
            key = (a + a2, sl[:idx] + pair + sl[idx + 1 :])
            if key[0] < ctx.M and monomial_degree(key[1]) <= ctx.D:
                _add_into(out, key, c * c2)
    return HElement(ctx, x.slots + 1, out)


def oracle_counit_slot(ctx, x, idx):
    out = {}
    for (a, sl), c in x.coeffs.items():
        word = sl[idx][0] if isinstance(x, CrossedElement) else sl[idx]
        if not word:
            _add_into(out, (a, sl[:idx] + sl[idx + 1 :]), c)
    return x.__class__(ctx, x.slots - 1, out)


def oracle_apply_endo(ctx, images, x):
    acc = {}
    for (a, sl), c in x.coeffs.items():
        parts = [(a, (), c)]
        for w in sl:
            img = oracle_word_image(ctx, images, 1, w)
            parts = [
                (aa + a2, done + sl2, cc * c2)
                for aa, done, cc in parts
                for (a2, sl2), c2 in img.coeffs.items()
                if aa + a2 < ctx.M
            ]
        for aa, sl2, cc in parts:
            if monomial_degree(sl2) <= ctx.D:
                _add_into(acc, (aa, sl2), cc)
    return HElement(ctx, x.slots, acc)


# -- random elements --------------------------------------------------------------------------


def elements(ctx, slots: int, labeled: bool = False, min_size: int = 1):
    """Plain or labeled elements with mixed hbar powers in [0, M); the public
    constructor drops terms past the PBW bound D."""
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return element_dicts(ctx, slots, coeff, labeled, min_size)


def element_dicts(ctx, slots: int, coeff, labeled: bool, min_size: int):
    """Elements of `slots` slots with coefficients drawn from `coeff`: words
    of length <= 2, labeled (a `CrossedElement`) or plain (an `HElement`)."""
    word = st.lists(st.integers(0, ctx.lba.dim - 1), max_size=2).map(lambda w: tuple(sorted(w)))
    slot = st.tuples(word, st.sampled_from(list(ctx.G.group.elements()))) if labeled else word
    key = st.tuples(st.integers(0, ctx.M - 1), st.tuples(*[slot] * slots))
    cls = CrossedElement if labeled else HElement
    return st.dictionaries(key, coeff, min_size=min_size, max_size=4).map(lambda d: cls(ctx, slots, d))


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_mul_and_counit_equal_old_loops(contexts, case, data):
    ctx = contexts[case]
    for slots in SLOTS:
        x, y = (data.draw(elements(ctx, slots)) for _ in range(2))
        assert terms(ctx.mul(x, y)) == terms(oracle_mul(ctx, x, y))
    for labeled in (False, True):
        for slots in SLOTS[1:]:
            x = data.draw(elements(ctx, slots, labeled))
            for idx in range(slots):
                assert terms(ctx.counit_slot(x, idx)) == terms(oracle_counit_slot(ctx, x, idx))


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_unit_factor_equals_the_pair_loop(contexts, case, data):
    """`mul` returns the other operand when one is the unit of its slot
    count: x 1 and 1 x equal the pair loop `_slot_product` on the same
    operands, in value and key order, since every key is a PBW word within
    the bounds.  A scaled unit, 2 or hbar, is no unit and takes the loop."""
    ctx = contexts[case]
    for slots in SLOTS:
        x = data.draw(elements(ctx, slots))
        unit = ctx.unit(slots)
        for left, right in ((x, unit), (unit, x)):
            got = terms(ctx.mul(left, right))
            assert got == terms(x)
            assert got == terms(_slot_product(left, right, ctx._mul_slot_cache, ctx._mul_slot))
        for scalar in (unit.scale(2), unit.hbar_shift(1)):
            for left, right in ((x, scalar), (scalar, x)):
                assert terms(ctx.mul(left, right)) == terms(oracle_mul(ctx, left, right))


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_coproduct_slot_and_apply_endo_equal_old_loops(contexts, case, data):
    ctx = contexts[case]
    # generator images need not form an algebra map for the loops to agree
    images = [data.draw(elements(ctx, 1, min_size=0)) for _ in range(ctx.lba.dim)]
    for slots in SLOTS:
        x = data.draw(elements(ctx, slots))
        for idx in range(slots):
            assert terms(ctx.coproduct_slot(x, idx)) == terms(oracle_coproduct_slot(ctx, x, idx))
        assert terms(ctx.apply_endo(images, x)) == terms(oracle_apply_endo(ctx, images, x))


# -- denominators: int sums over a running common denominator ---------------------------------

# pairwise coprime: a sum's common denominator grows term by term
DENOMINATORS = (4, 5, 7, 9, 11)


def fractions_over(denominators):
    return st.builds(Fraction, st.integers(-12, 12).filter(bool), st.sampled_from(denominators))


def elements_over(ctx, slots: int, denominators, labeled: bool = False, min_size: int = 1):
    """Elements as `elements` draws them, with coefficients over `denominators`."""
    return element_dicts(ctx, slots, fractions_over(denominators), labeled, min_size)


def oracle_semidirect_product(alg, x, y):
    """[w1|g1][w2|g2] = [w1 * i_{g1}^{-1}(theta_g1(w2)) * v_{g1,g2}^{-1} | g1g2]
    slot by slot, in Fraction, with the cut applied at the end."""
    ctx, data = alg.ctx, alg.data
    out = {}
    for (a1, sl1), c1 in x.coeffs.items():
        for (a2, sl2), c2 in y.coeffs.items():
            parts = [(a1 + a2, (), c1 * c2)]
            for (w1, g1), (w2, g2) in zip(sl1, sl2):
                conj = HElement(ctx, 1, {(0, (w2,)): Fraction(1)})
                for images in (ctx.theta_images(g1), data.i_inverse_images(g1)):
                    conj = ctx.apply_endo(images, conj)
                plain1 = HElement(ctx, 1, {(0, (w1,)): Fraction(1)})
                val = plain1 * conj * ctx.inverse(data.v[(g1, g2)])
                gg = ctx.G.group.mul(g1, g2)
                parts = [
                    (a + b, done + ((w, gg),), c * cv)
                    for a, done, c in parts
                    for (b, (w,)), cv in val.coeffs.items()
                ]
            for a, sl, c in parts:
                if a < ctx.M and sum(len(w) for w, _ in sl) <= ctx.D:
                    _add_into(out, (a, sl), c)
    return CrossedElement(ctx, x.slots, out)


@pytest.fixture(scope="module")
def algebras():
    return {name: SemidirectBialgebra(maker(3, D)) for name, maker in DATASETS.items()}


def check_plain_operations(ctx, data, denominators):
    images = [data.draw(elements_over(ctx, 1, denominators, min_size=0)) for _ in range(ctx.lba.dim)]
    for slots in SLOTS:
        x, y = (data.draw(elements_over(ctx, slots, denominators)) for _ in range(2))
        assert terms(ctx.mul(x, y)) == terms(oracle_mul(ctx, x, y))
        for idx in range(slots):
            assert terms(ctx.coproduct_slot(x, idx)) == terms(oracle_coproduct_slot(ctx, x, idx))
        assert terms(ctx.apply_endo(images, x)) == terms(oracle_apply_endo(ctx, images, x))


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_coprime_denominators_equal_fraction_oracles(contexts, case, data):
    check_plain_operations(contexts[case], data, DENOMINATORS)


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_integer_operands_equal_fraction_oracles(contexts, case, data):
    check_plain_operations(contexts[case], data, (1,))


@pytest.mark.parametrize("name", list(DATASETS))
@PROPERTY
@given(data=st.data())
def test_semidirect_product_coprime_denominators(algebras, name, data):
    alg = algebras[name]
    for denominators in (DENOMINATORS, (1,)):
        for slots in SLOTS:
            x, y = (data.draw(elements_over(alg.ctx, slots, denominators, labeled=True)) for _ in range(2))
            assert terms(alg.product(x, y)) == terms(oracle_semidirect_product(alg, x, y))


def half_bracket_context() -> QueContext:
    """[x, y] = x/2, zero cobracket, trivial group: straightening a word
    pair gives a slot table over 2, 4, ..., where the bundled data's tables
    are all over 1."""
    half = Fraction(1, 2)
    lba = LieBialgebra(2, ["x", "y"], {(0, 1, 0): half, (1, 0, 0): -half}, {})
    one = FiniteGroup.cyclic(1)
    return QueContext(GammaLieBialgebra(lba, one, {0: [[ONE, ZERO], [ZERO, ONE]]}, {0: {}}), 3, D)


@PROPERTY
@given(data=st.data())
def test_table_denominators_equal_fraction_oracle(data):
    """Each slot count's pair loop multiplies the denominators of its slot
    tables into the pair's, as the oracle's `Fraction` products do."""
    ctx = half_bracket_context()
    for denominators in (DENOMINATORS, (1,)):
        for slots in SLOTS:
            x, y = (data.draw(elements_over(ctx, slots, denominators)) for _ in range(2))
            assert terms(ctx.mul(x, y)) == terms(oracle_mul(ctx, x, y))


@PROPERTY
@given(c=st.lists(fractions_over(DENOMINATORS), min_size=4, max_size=4))
def test_cancelled_key_comes_back_last(contexts, c):
    """(c1 x + c2 y + c3)(c4 y + d x + xy) in the abelian algebra: x*y adds
    the key xy, y*x cancels it (d = -c1 c4 / c2), and 1*xy adds it again,
    after every other key."""
    ctx = contexts[("abelian", 3)]
    c1, c2, c3, c4 = c

    def plain(*entries):
        return HElement(ctx, 1, {(0, (w,)): k for w, k in entries})

    x = plain(((0,), c1), ((1,), c2), ((), c3))
    y = plain(((1,), c4), ((0,), -c1 * c4 / c2), ((0, 1), Fraction(1)))
    got = terms(ctx.mul(x, y))
    assert got == terms(oracle_mul(ctx, x, y))
    assert got[-1] == ((0, ((0, 1),)), c3)


@PROPERTY
@given(c=st.lists(fractions_over(DENOMINATORS), min_size=4, max_size=4))
def test_cancelled_two_slot_key_comes_back_last(contexts, c):
    """The two-table loop's twin of the test above, in 2 slots: (x|y)(y|x)
    adds the key (xy|xy), (y|x)(x|y) cancels it, (1|1)(xy|xy) adds it again
    after every other key, and the two products of degree 6 are cut."""
    ctx = contexts[("abelian", 3)]
    c1, c2, c3, c4 = c

    def plain(*entries):
        return HElement(ctx, 2, {(0, sl): k for sl, k in entries})

    x_y, y_x, xy = ((0,), (1,)), ((1,), (0,)), ((0, 1), (0, 1))
    x = plain((x_y, c1), (y_x, c2), (((), ()), c3))
    y = plain((y_x, c4), (x_y, -c1 * c4 / c2), (xy, Fraction(1)))
    got = terms(ctx.mul(x, y))
    assert got == terms(oracle_mul(ctx, x, y))
    assert got[-1] == ((0, xy), c3)
    assert all(monomial_degree(sl) <= 4 for (_, sl), _ in got)
