"""The semidirect bialgebra's hbar^0 tables against the per-term formula.

`SemidirectBialgebra` computes each basis product [w1|g1][w2|g2] and each
basis coproduct Delta[w|g] once, at hbar^0, and shifts it by the hbar powers
of the terms it is applied to.  The oracle below evaluates the formula term
pair by term pair with the hbar powers inside the operands, as the
bialgebra did before the tables; values and key order must agree.

`axiom_report` interns its products and compares (ab)c with a(bc) as
indices; a copy of the triple loop that multiplies every pair afresh checks
that it reports the same issues, in the same order, on data that fails each
kind of check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammastack.cli import data_path
from gammastack.problemfile import build_que_data, parse_problem
from gammastack.quantum import (
    CrossedElement,
    GammaQUEData,
    HElement,
    QueContext,
    SemidirectBialgebra,
    _slot_product,
    build_semidirect,
    quantize_stack,
)
from gammastack.tensors import _add_into, sorted_words

from tools.bundled import abelian_que_data, sl2_que_data, trivial_que_data

from conftest import quantum_terms as terms

ONE = Fraction(1)

# small truncations; M = 2 and M = 3 both cut products of mixed hbar powers
DATASETS = {
    "trivial": (trivial_que_data, 2, 3),
    "abelian": (abelian_que_data, 3, 4),
    "sl2": (sl2_que_data, 3, 4),
}

PROPERTY = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def algebras():
    return {name: SemidirectBialgebra(maker(M, D)) for name, (maker, M, D) in DATASETS.items()}


# -- the per-term formula ------------------------------------------------------------------


def oracle_product(alg, x, y):
    ctx, data = alg.ctx, alg.data
    out = {}
    for (a1, ((w1, g1),)), c1 in x.coeffs.items():
        for (a2, ((w2, g2),)), c2 in y.coeffs.items():
            conj = HElement(ctx, 1, {(a2, (w2,)): ONE})
            for images in (ctx.theta_images(g1), data.i_inverse_images(g1)):
                conj = ctx.apply_endo(images, conj)
            plain1 = HElement(ctx, 1, {(a1, (w1,)): ONE})
            gg = ctx.G.group.mul(g1, g2)
            val = plain1 * conj * ctx.inverse(data.v[(g1, g2)])
            for (a, (w,)), c in val.coeffs.items():
                _add_into(out, (a, ((w, gg),)), c1 * c2 * c)
    return CrossedElement(ctx, 1, out)


def oracle_coproduct(alg, x):
    ctx, data = alg.ctx, alg.data
    out = {}
    for (a, ((w, g),)), c in x.coeffs.items():
        plain = HElement(ctx, 1, {(a, (w,)): c})
        val = ctx.coproduct_slot(plain, 0) * ctx.inverse(data.F[g])
        for (aa, (w1, w2)), cc in val.coeffs.items():
            _add_into(out, (aa, ((w1, g), (w2, g))), cc)
    return CrossedElement(ctx, 2, out)


def oracle_mul2(alg, x, y):
    ctx = alg.ctx
    out = {}
    for (a1, sl1), c1 in x.coeffs.items():
        for (a2, sl2), c2 in y.coeffs.items():
            if a1 + a2 >= ctx.M:
                continue
            left = oracle_product(
                alg, CrossedElement(ctx, 1, {(a1, (sl1[0],)): c1}), CrossedElement(ctx, 1, {(a2, (sl2[0],)): c2})
            )
            right = oracle_product(
                alg, CrossedElement(ctx, 1, {(0, (sl1[1],)): ONE}), CrossedElement(ctx, 1, {(0, (sl2[1],)): ONE})
            )
            for (aa, (s1,)), cc in left.coeffs.items():
                for (bb, (s2,)), cc2 in right.coeffs.items():
                    if aa + bb < ctx.M:
                        _add_into(out, (aa + bb, (s1, s2)), cc * cc2)
    return CrossedElement(ctx, 2, out)


def oracle_cop_slot(alg, x, idx):
    ctx = alg.ctx
    out = {}
    for (a, sl), c in x.coeffs.items():
        piece = oracle_coproduct(alg, CrossedElement(ctx, 1, {(a, (sl[idx],)): c}))
        for (aa, pair), cc in piece.coeffs.items():
            _add_into(out, (aa, sl[:idx] + pair + sl[idx + 1 :]), cc)
    return CrossedElement(ctx, x.slots + 1, out)


# -- random labeled elements --------------------------------------------------------------


def labeled_elements(ctx, slots: int):
    """Labeled elements with mixed hbar powers in [0, M); the public
    constructor drops terms past the PBW bound D."""
    word = st.lists(st.integers(0, ctx.lba.dim - 1), max_size=2).map(lambda w: tuple(sorted(w)))
    slot = st.tuples(word, st.sampled_from(list(ctx.G.group.elements())))
    key = st.tuples(st.integers(0, ctx.M - 1), st.tuples(*[slot] * slots))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.dictionaries(key, coeff, min_size=1, max_size=3).map(
        lambda d: CrossedElement(ctx, slots, d)
    )


@pytest.mark.parametrize("name", list(DATASETS))
@PROPERTY
@given(data=st.data())
def test_tables_equal_per_term_formula(algebras, name, data):
    alg = algebras[name]
    ctx = alg.ctx
    x, y = (data.draw(labeled_elements(ctx, 1)) for _ in range(2))
    xx, yy = (data.draw(labeled_elements(ctx, 2)) for _ in range(2))
    assert terms(alg.product(x, y)) == terms(oracle_product(alg, x, y))
    assert terms(alg.coproduct(x)) == terms(oracle_coproduct(alg, x))
    assert terms(alg.product(xx, yy)) == terms(oracle_mul2(alg, xx, yy))
    for slots in (1, 2, 3):
        z = data.draw(labeled_elements(ctx, slots))
        for idx in range(slots):
            assert terms(alg._cop_slot(z, idx)) == terms(oracle_cop_slot(alg, z, idx))


def test_product_rejects_incompatible_operands(algebras):
    """The semidirect product raises, as `QueContext.mul` does, on operands
    of different slot counts (either way round) and on an operand of another
    context; so does Delta on an element of another context."""
    alg = algebras["sl2"]
    ctx = alg.ctx
    one = ctx.labeled((0,), 1)
    two = CrossedElement(ctx, 2, {(0, (((0,), 1), ((), 0))): ONE})
    other = QueContext(ctx.G, 2, 4).labeled((0,), 1)
    for x, y in ((one, two), (two, one), (one, other), (other, one), (other, other)):
        with pytest.raises(ValueError, match="incompatible elements"):
            alg.product(x, y)
    with pytest.raises(ValueError, match="incompatible elements"):
        alg.coproduct(other)


# -- the axiom sweep ---------------------------------------------------------------------


def triple_loop_report(alg, degree: int = 1) -> list[str]:
    """The axiom sweep as a plain triple loop: every product, coproduct and
    (ab)c, a(bc) computed afresh for each basis pair and triple."""
    ctx = alg.ctx
    grp = ctx.G.group
    words = [w for d in range(degree + 1) for w in sorted_words(ctx.lba.dim, d)]
    basis = [ctx.labeled(w, g) for w in words for g in grp.elements()]
    issues = []
    for a in basis:
        for b in basis:
            ab = alg.product(a, b)
            if alg.coproduct(ab) != alg.product(alg.coproduct(a), alg.coproduct(b)):
                issues.append(f"bialgebra compatibility fails at {a.format()},{b.format()}")
            for c in basis:
                if alg.product(ab, c) != alg.product(a, alg.product(b, c)):
                    issues.append(f"associativity fails at {a.format()},{b.format()},{c.format()}")
        d = alg.coproduct(a)
        if alg._cop_slot(d, 0) != alg._cop_slot(d, 1):
            issues.append(f"coassociativity fails at {a.format()}")
        u = alg.unit()
        if alg.product(u, a) != a or alg.product(a, u) != a:
            issues.append(f"unit axiom fails at {a.format()}")
    return issues


def scaled_v(data: GammaQUEData) -> GammaQUEData:
    """v_{e,s} times the scalar 1 + hbar: v stops being a 2-cocycle, the
    unit [1|e] no longer fixes [w|s] from the left, and Delta no longer
    carries the changed products to products."""
    v01 = data.v[(0, 1)]
    return GammaQUEData(data.ctx, dict(data.F), dict(data.i_images), {**data.v, (0, 1): v01 + v01.hbar_shift(1)})


def changed_f(data: GammaQUEData) -> GammaQUEData:
    """F_s with its first hbar^1 term doubled: F_s stops solving the twist
    equation, and Delta stops being multiplicative."""
    f = data.F[1]
    key = min(k for k in f.coeffs if k[0] == 1)
    coeffs = {**f.coeffs, key: 2 * f.coeffs[key]}
    return GammaQUEData(data.ctx, {**data.F, 1: HElement(data.ctx, 2, coeffs)}, dict(data.i_images), dict(data.v))


def kinds(issues: list[str]) -> set[str]:
    return {issue.split(" fails at ")[0] for issue in issues}


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: sl2_que_data(3, 4), {"bialgebra compatibility"}),
        (lambda: abelian_que_data(3, 4), set()),
        (lambda: scaled_v(abelian_que_data(3, 4)), {"associativity", "unit axiom", "bialgebra compatibility"}),
        (lambda: changed_f(abelian_que_data(3, 4)), {"coassociativity", "bialgebra compatibility"}),
    ],
    ids=["sl2-D4", "abelian", "abelian-scaled-v", "abelian-changed-F"],
)
def test_axiom_report_equals_the_triple_loop(make, expected):
    """The interned sweep reports exactly the triple loop's issues, strings
    and order included: the sl2 sweep at D = 4 fails compatibility only,
    and each mutation of the abelian data fails its own kinds of check."""
    data = make()
    reference = triple_loop_report(SemidirectBialgebra(data))
    assert kinds(reference) == expected
    assert SemidirectBialgebra(data).axiom_report(1) == reference


def test_axiom_report_multiplies_each_distinct_pair_once(monkeypatch):
    """One axiom_report(1) on the sl2 data at M = 3, D = 4 makes 3,744
    products (the triple loop: 12,832), 116 coproducts (784) and 144
    apply_endo calls (3,272): each distinct product once, the coproduct of
    each basis element and of each distinct ab once, and one conjugate
    i^{-1}_g(theta_g(w)) per (w, g)."""
    data = sl2_que_data(3, 4)
    for g in data.ctx.G.group.elements():
        data.i_inverse_images(g)
    counts = dict.fromkeys(("product", "coproduct", "apply_endo"), 0)

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(SemidirectBialgebra, "product")
    counted(SemidirectBialgebra, "coproduct")
    counted(QueContext, "apply_endo")
    assert len(SemidirectBialgebra(data).axiom_report(1)) == 72
    assert counts == {"product": 3744, "coproduct": 116, "apply_endo": 144}
    assert 3 * counts["product"] < 12832 and 3 * counts["apply_endo"] < 3272


@cache
def swept(name: str, M: int, D: int) -> tuple[SemidirectBialgebra, list[str]]:
    """The axiom sweep of a bundled file at (M, D), run once per session."""
    text = data_path(name).read_text(encoding="utf-8")
    return build_semidirect(build_que_data(parse_problem(text), M, D), 1)


def test_sl2_sweep_builds_each_basis_table_once():
    """The benchmark's sweep, sl2-que.glb at M = 3, D = 6: a product reads
    the table of every slot pair of each term pair below hbar^M, and Delta
    the table of every slot it meets, so the sweep builds exactly the basis
    products (1,764) and basis coproducts (60) its terms meet, and finds no
    issue."""
    alg, issues = swept("sl2-que.glb", 3, 6)
    assert issues == []
    assert (len(alg._products), len(alg._coproducts)) == (1764, 60)


# -- the tables against the per-pair construction -----------------------------------------


def pair_loop_mul(x, y):
    """x y through the pair loop, past `QueContext.mul`'s unit fast path."""
    return _slot_product(x, y, x.ctx._mul_slot_cache, x.ctx._mul_slot)


def per_pair_product_table(alg, s1, s2):
    """The table of [w1|g1][w2|g2] built for this pair alone:
    (w1 i_{g1}^{-1}(theta_g1(w2))) v_{g1,g2}^{-1} at hbar^0, labelled g1g2."""
    ctx, data = alg.ctx, alg.data
    (w1, g1), (w2, g2) = s1, s2
    conj = HElement(ctx, 1, {(0, (w2,)): ONE})
    for images in (ctx.theta_images(g1), data.i_inverse_images(g1)):
        conj = ctx.apply_endo(images, conj)
    plain1 = HElement(ctx, 1, {(0, (w1,)): ONE})
    val = pair_loop_mul(pair_loop_mul(plain1, conj), ctx.inverse(data.v[(g1, g2)]))
    gg = ctx.G.group.mul(g1, g2)
    return CrossedElement._table(val.den, ((a, ((w, gg),), n) for (a, (w,)), n in val.num.items()))


def per_slot_coproduct_table(alg, s):
    """The table of Delta[w|g] built for this slot alone: Delta_e(w) F_g^{-1}
    at hbar^0, labelled g in both slots."""
    ctx, data = alg.ctx, alg.data
    w, g = s
    plain = HElement(ctx, 1, {(0, (w,)): ONE})
    val = pair_loop_mul(ctx.coproduct_slot(plain, 0), ctx.inverse(data.F[g]))
    return CrossedElement._table(val.den, ((a, ((w1, g), (w2, g)), n) for (a, (w1, w2)), n in val.num.items()))


def unlabelled(table):
    den, entries = table
    return den, tuple((a, tuple(w for w, _ in sl), n, e) for a, sl, n, e in entries)


@pytest.mark.parametrize("name, M, D", [("sl2-que.glb", 3, 6), ("abelian-que.glb", 3, 4)])
def test_swept_tables_equal_the_per_pair_construction(name, M, D):
    """A basis product computes its plain product once per (w1, w2, g1, value
    of v^{-1}_{g1,g2}) and relabels it for every other g2 with an equal v^{-1}.
    After the sweep every product and coproduct table equals the one built
    for its pair alone, entry order included.  On sl2-que every v^{-1} is the
    unit; on abelian-que v_{s,s} = 1 - 2 hbar^2 x x y is not, and some
    tables of one (w1, g1), (w2, .) differ by more than their labels, so
    tables of labels with different v^{-1} are not shared."""
    alg, issues = swept(name, M, D)
    assert issues == []
    for (s1, s2), table in alg._products.items():
        assert table == per_pair_product_table(alg, s1, s2)
    for s, table in alg._coproducts.items():
        assert table == per_slot_coproduct_table(alg, s)
    plain: dict = {}
    for (s1, (w2, _)), table in alg._products.items():
        plain.setdefault((s1, w2), set()).add(unlabelled(table))
    unit = alg.ctx.unit(1)
    if name == "sl2-que.glb":
        assert all(vinv == unit for vinv in alg._vinv.values())
        assert all(len(tables) == 1 for tables in plain.values())
    else:
        assert alg._vinv[(1, 1)] != unit
        assert any(len(tables) > 1 for tables in plain.values())


def test_unit_factors_skip_the_pair_loop(monkeypatch):
    """On sl2-que.glb at M = 3, D = 6, `quantize_stack` sends 138 of its
    `QueContext.mul` calls through the pair loop `_slot_product`, and the
    axiom sweep after it (the benchmark's order) 478: a unit factor returns
    the other operand, a relabelled basis product multiplies nothing, and
    `validate_que_data` evaluates each unordered bracket pair once (516 and
    3,618 when every call took the loop and every ordered pair was
    evaluated).  The crossed product's own unit [1|e] still takes the loop:
    all 3,744 products of the sweep do."""
    text = data_path("sl2-que.glb").read_text(encoding="utf-8")
    data = build_que_data(parse_problem(text), 3, 6)
    calls = {HElement: 0, CrossedElement: 0}

    def counted(x, y, memo, build):
        calls[x.__class__] += 1
        return _slot_product(x, y, memo, build)

    monkeypatch.setattr("gammastack.quantum._slot_product", counted)
    assert quantize_stack(data).ok
    assert calls == {HElement: 138, CrossedElement: 0}
    calls.update(dict.fromkeys(calls, 0))
    assert SemidirectBialgebra(data).axiom_report(1) == []
    assert calls == {HElement: 478, CrossedElement: 3744}
