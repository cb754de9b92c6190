"""QueContext's products, coproducts, counits and endomorphisms against the
loops they replaced.

`quantum.spread` is the one slotwise product with the hbar/PBW cut; `mul`,
`coproduct_slot`, `counit_slot` and `apply_endo` only choose its tables.  The
oracles below are the per-operation loops that came before it, written over
the Lie algebra's straightening directly; values and key order must agree.
`mul` takes plain slots only (labeled ones are the semidirect product's).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammastack.builtin import abelian_que_data, sl2_que_data, trivial_que_data
from gammastack.quantum import PLAIN, HElement, QueContext
from gammastack.tensors import _add_into

D = 4
# the ambient coproducts of three data sets, at M = 2 and 3: both cut
# products of mixed hbar powers
DATASETS = {"trivial": trivial_que_data, "abelian": abelian_que_data, "sl2": sl2_que_data}
CASES = [(name, M) for name in DATASETS for M in (2, 3)]

PROPERTY = settings(max_examples=12, deadline=None)


@pytest.fixture(scope="module")
def contexts():
    out = {}
    for name, maker in DATASETS.items():
        base = maker(3, D).ctx
        coproduct = {i: img.coeffs for i, img in enumerate(base.delta_images)}
        for M in (2, 3):
            out[(name, M)] = QueContext(base.G, M, D, coproduct)
    return out


# -- the loops spread replaced -------------------------------------------------------------


def oracle_slot_product(ctx, s1, s2):
    (w1, _g1), (w2, _g2) = s1, s2
    return {(w, PLAIN): c for w, c in ctx.lba.straighten(w1 + w2).items()}


def oracle_mul(ctx, x, y):
    out = {}
    for (a1, sl1), c1 in x.coeffs.items():
        for (a2, sl2), c2 in y.coeffs.items():
            a = a1 + a2
            if a >= ctx.M:
                continue
            parts = [((), c1 * c2)]
            for s1, s2 in zip(sl1, sl2):
                prods = oracle_slot_product(ctx, s1, s2)
                parts = [(done + (s,), c * cs) for done, c in parts for s, cs in prods.items()]
            for sl, c in parts:
                if sum(len(w) for w, _ in sl) <= ctx.D:
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
        w, _g = sl[idx]
        for (a2, pair), c2 in oracle_word_image(ctx, ctx.delta_images, 2, w).coeffs.items():
            key = (a + a2, sl[:idx] + pair + sl[idx + 1 :])
            if key[0] < ctx.M and sum(len(ww) for ww, _ in key[1]) <= ctx.D:
                _add_into(out, key, c * c2)
    return HElement(ctx, x.slots + 1, out)


def oracle_counit_slot(ctx, x, idx):
    out = {}
    for (a, sl), c in x.coeffs.items():
        if not sl[idx][0]:
            _add_into(out, (a, sl[:idx] + sl[idx + 1 :]), c)
    return HElement(ctx, x.slots - 1, out)


def oracle_apply_endo(ctx, images, x):
    acc = {}
    for (a, sl), c in x.coeffs.items():
        parts = [(a, (), c)]
        for w, _g in sl:
            img = oracle_word_image(ctx, images, 1, w)
            parts = [
                (aa + a2, done + sl2, cc * c2)
                for aa, done, cc in parts
                for (a2, sl2), c2 in img.coeffs.items()
                if aa + a2 < ctx.M
            ]
        for aa, sl2, cc in parts:
            if sum(len(ww) for ww, _ in sl2) <= ctx.D:
                _add_into(acc, (aa, sl2), cc)
    return HElement(ctx, x.slots, acc)


# -- random elements --------------------------------------------------------------------------


def elements(ctx, slots: int, labeled: bool = False, min_size: int = 1):
    """Plain or labeled elements with mixed hbar powers in [0, M); the public
    constructor drops terms past the PBW bound D."""
    word = st.lists(st.integers(0, ctx.lba.dim - 1), max_size=2).map(lambda w: tuple(sorted(w)))
    label = st.sampled_from(list(ctx.G.group.elements())) if labeled else st.just(PLAIN)
    key = st.tuples(st.integers(0, ctx.M - 1), st.tuples(*[st.tuples(word, label)] * slots))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.dictionaries(key, coeff, min_size=min_size, max_size=4).map(
        lambda d: HElement(ctx, slots, d)
    )


def terms(x: HElement) -> list:
    return list(x.coeffs.items())


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_mul_and_counit_equal_old_loops(contexts, case, data):
    ctx = contexts[case]
    for slots in (1, 2):
        x, y = (data.draw(elements(ctx, slots)) for _ in range(2))
        assert terms(ctx.mul(x, y)) == terms(oracle_mul(ctx, x, y))
    for labeled in (False, True):
        x = data.draw(elements(ctx, 2, labeled))
        for idx in (0, 1):
            assert terms(ctx.counit_slot(x, idx)) == terms(oracle_counit_slot(ctx, x, idx))


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-M{M}" for name, M in CASES])
@PROPERTY
@given(data=st.data())
def test_coproduct_slot_and_apply_endo_equal_old_loops(contexts, case, data):
    ctx = contexts[case]
    # generator images need not form an algebra map for the loops to agree
    images = [data.draw(elements(ctx, 1, min_size=0)) for _ in range(ctx.lba.dim)]
    for slots in (1, 2):
        x = data.draw(elements(ctx, slots))
        for idx in range(slots):
            assert terms(ctx.coproduct_slot(x, idx)) == terms(oracle_coproduct_slot(ctx, x, idx))
        assert terms(ctx.apply_endo(images, x)) == terms(oracle_apply_endo(ctx, images, x))
