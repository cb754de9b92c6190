"""The semidirect bialgebra's hbar^0 tables against the per-term formula.

`SemidirectBialgebra` computes each basis product [w1|g1][w2|g2] and each
basis coproduct Delta[w|g] once, at hbar^0, and shifts it by the hbar powers
of the terms it is applied to.  The oracle below evaluates the formula term
pair by term pair with the hbar powers inside the operands, as the
bialgebra did before the tables; values and key order must agree.

The algebra keeps one memo of plain (label-free) tables per label class:
labels whose theta, i^{-1}, v^{-1} and F^{-1} agree by value share their
tables.  The labelled product and coproduct read them relabelled, and each
must equal the table built for its own pair.  `axiom_report` evaluates each
product and coproduct once per label class, on plain values with the class
tables, and compares (ab)c with a(bc) as indices; a copy of the triple loop
that multiplies every labelled pair afresh checks that it reports the same
issues, in the same order, on data that fails each kind of check and on
data that splits one class of the sl2 covering Z/4 -> Z/2 at one element.
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


def labeled_elements(ctx, slots: int, degree: int = 2):
    """Labeled elements with mixed hbar powers in [0, M) and words of degree
    at most `degree`; the public constructor drops terms past the PBW bound
    D."""
    word = st.lists(st.integers(0, ctx.lba.dim - 1), max_size=degree).map(lambda w: tuple(sorted(w)))
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


def scaled_v(data: GammaQUEData, pair: tuple[int, int] = (0, 1)) -> GammaQUEData:
    """v_{e,g,gh} for pair = (g, h) (by default v_{e,s}) times the scalar
    1 + hbar: v stops being a 2-cocycle, and Delta no longer carries the
    changed products to products; on the abelian data the unit [1|e] no
    longer fixes [w|s] from the left."""
    v = data.v[pair]
    return GammaQUEData(data.ctx, dict(data.F), dict(data.i_images), {**data.v, pair: v + v.hbar_shift(1)})


def changed_f(data: GammaQUEData, g: int = 1) -> GammaQUEData:
    """F_g (by default F_s) with its first hbar^1 term doubled: F_g stops
    solving the twist equation, and Delta stops being multiplicative."""
    f = data.F[g]
    key = min(k for k in f.coeffs if k[0] == 1)
    coeffs = {**f.coeffs, key: 2 * f.coeffs[key]}
    return GammaQUEData(data.ctx, {**data.F, g: HElement(data.ctx, 2, coeffs)}, dict(data.i_images), dict(data.v))


def changed_i(data: GammaQUEData, g: int) -> GammaQUEData:
    """i_g scaling every generator by 1 + hbar^2: i_g^{-1} leaves the
    identity at hbar^2, and associativity and compatibility fail."""
    ctx = data.ctx
    images = [ctx.gen(k) + ctx.gen(k).hbar_shift(2) for k in range(ctx.lba.dim)]
    return GammaQUEData(ctx, dict(data.F), {**data.i_images, g: images}, dict(data.v))


@cache
def sl2_d4() -> GammaQUEData:
    return sl2_que_data(3, 4)


# the labels of sl2_que_data: Z/4 = {e, w, w2, w3} covers the Weyl group
# Z/2, and its kernel {e, w2} acts trivially
E, W, W2, W3 = range(4)


def kinds(issues: list[str]) -> set[str]:
    return {issue.split(" fails at ")[0] for issue in issues}


@pytest.mark.parametrize(
    "make, expected",
    [
        (sl2_d4, {"bialgebra compatibility"}),
        (lambda: abelian_que_data(3, 4), set()),
        (lambda: scaled_v(abelian_que_data(3, 4)), {"associativity", "unit axiom", "bialgebra compatibility"}),
        (lambda: changed_f(abelian_que_data(3, 4)), {"coassociativity", "bialgebra compatibility"}),
        (lambda: changed_f(sl2_d4(), W3), {"coassociativity", "bialgebra compatibility"}),
        (lambda: scaled_v(sl2_d4(), (W2, W)), {"associativity", "bialgebra compatibility"}),
        (lambda: changed_i(sl2_d4(), W2), {"associativity", "bialgebra compatibility"}),
    ],
    ids=[
        "sl2-D4",
        "abelian",
        "abelian-scaled-v",
        "abelian-changed-F",
        "sl2-changed-F-w3",
        "sl2-scaled-v-w2-w",
        "sl2-changed-i-w2",
    ],
)
def test_axiom_report_equals_the_triple_loop(make, expected):
    """The class sweep reports exactly the triple loop's issues, strings
    and order included: the sl2 sweep at D = 4 fails compatibility only,
    and each mutation of the abelian data fails its own kinds of check.
    Each sl2 mutation separates one kernel element from its partner in one
    input only (F_w3 from F_w, v_{w2,w} from v_{e,w}, i_w2 from i_e), so a
    class key that missed that input would merge the two labels."""
    data = make()
    reference = triple_loop_report(SemidirectBialgebra(data))
    assert kinds(reference) == expected
    assert SemidirectBialgebra(data).axiom_report(1) == reference


def test_each_sl2_mutation_splits_one_kernel_class():
    """On the sl2 data w2 shares every input id with e, and w3 with w, so
    the sweep evaluates the labels of a coset once; each mutation of the
    triple-loop test splits one of those classes in one input only."""

    def splits(data):
        alg = SemidirectBialgebra(data)
        conj, vinv, finv = alg._conj_ids, alg._vinv_ids, alg._finv_ids
        return {
            "conj": [conj[E] != conj[W2], conj[W] != conj[W3]],
            "vinv": [vinv[(E, W)] != vinv[(W2, W)]],
            "finv": [finv[E] != finv[W2], finv[W] != finv[W3]],
        }

    none = {"conj": [False, False], "vinv": [False], "finv": [False, False]}
    assert splits(sl2_d4()) == none
    assert splits(changed_f(sl2_d4(), W3)) == {**none, "finv": [False, True]}
    assert splits(scaled_v(sl2_d4(), (W2, W))) == {**none, "vinv": [True]}
    assert splits(changed_i(sl2_d4(), W2)) == {**none, "conj": [True, False]}


def test_axiom_report_multiplies_each_distinct_pair_once(monkeypatch):
    """One axiom_report(1) on the sl2 data at M = 3, D = 4 evaluates 432
    class products (3,744 when each labelled product was evaluated; the
    triple loop: 12,832) and 66 class coproducts (148), the coassociativity
    checks included: 50 of 1-slot values (116; 784) and 16 at one slot of a
    multi-slot value; and it makes 72 apply_endo calls (144; 3,272): each
    product and coproduct once per label class, on plain values, and one
    conjugate i^{-1}(theta(w)) per (w, conjugation id) the class products
    meet.  The labelled `product`, `coproduct` and `_cop_slot` are not
    called."""
    import gammastack.quantum as quantum

    data = sl2_que_data(3, 4)
    for g in data.ctx.G.group.elements():
        data.i_inverse_images(g)
    counts = dict.fromkeys(("labelled", "product", "coproduct", "slot coproduct", "apply_endo"), 0)
    delta_tables = set()

    def counted(owner, name, key):
        """Wrap owner.name: key(result, *args) names the count a call adds
        to, or is None."""
        real = getattr(owner, name)

        def wrapper(*args):
            out = real(*args)
            counted_key = key(out, *args)
            if counted_key:
                counts[counted_key] += 1
            return out

        monkeypatch.setattr(owner, name, wrapper)

    def slot_terms(_terms, x, _idx, table):
        if table in delta_tables:
            return "coproduct" if x.slots == 1 else "slot coproduct"
        return None

    for name in ("product", "coproduct", "_cop_slot"):
        counted(SemidirectBialgebra, name, lambda *_: "labelled")
    counted(SemidirectBialgebra, "_product_tables", lambda *_: "product")
    counted(SemidirectBialgebra, "_coproduct_table", lambda table, *_: delta_tables.add(table))
    counted(quantum, "_slot_terms", slot_terms)
    counted(QueContext, "apply_endo", lambda *_: "apply_endo")
    assert len(SemidirectBialgebra(data).axiom_report(1)) == 72
    assert counts == {"labelled": 0, "product": 432, "coproduct": 50, "slot coproduct": 16, "apply_endo": 72}
    assert 3 * counts["product"] < 12832 and 3 * counts["apply_endo"] < 3272


@cache
def swept(name: str, M: int, D: int, degree: int = 1) -> tuple[SemidirectBialgebra, list[str]]:
    """The axiom sweep of a bundled file at (M, D) to PBW degree `degree`,
    run once per session."""
    text = data_path(name).read_text(encoding="utf-8")
    return build_semidirect(build_que_data(parse_problem(text), M, D), degree)


def test_sl2_sweep_builds_each_basis_table_once():
    """The benchmark's sweep, sl2-que.glb at M = 3, D = 6: a product reads
    the table of every slot pair of each term pair below hbar^M, and Delta
    the table of every slot it meets, so the sweep builds exactly the plain
    basis products (273) and basis coproducts (30) its class evaluations
    meet, in 2 product classes and 2 coproduct classes (473 and 39 labelled
    tables when each class was evaluated through the labelled product;
    1,764 and 60 when every labelled product and coproduct was), and finds
    no issue."""
    alg, issues = swept("sl2-que.glb", 3, 6)
    assert issues == []
    assert (len(alg._class_products), len(alg._class_coproducts)) == (2, 2)
    built = (sum(map(len, alg._class_products.values())), sum(map(len, alg._class_coproducts.values())))
    assert built == (273, 30)


def test_sl2_sweep_at_degree_two_finds_no_issue():
    """The benchmark's data swept on the PBW monomials of degree <= 2: 40
    basis elements, 64,000 triples, all axioms hold."""
    _alg, issues = swept("sl2-que.glb", 3, 6, 2)
    assert issues == []


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
    """A labelled table with its labels dropped."""
    den, entries = table
    return den, tuple((a, tuple(w for w, _ in sl), n, e) for a, sl, n, e in entries)


@pytest.mark.parametrize("name, M, D", [("sl2-que.glb", 3, 6), ("abelian-que.glb", 3, 4)])
def test_swept_tables_equal_the_per_pair_construction(name, M, D):
    """After the sweep each plain class table equals the table built for
    each label pair of its class alone, labels dropped, entry order
    included, and each plain coproduct table that of each label of its
    class.  The labelled tables that `product` and `coproduct` build from
    them (here on the degree <= 1 basis) equal the per-pair tables, labels
    included.  On sl2-que every v^{-1} is the unit, so every label pair has
    the unit's v^{-1} id; on abelian-que v_{s,s} = 1 - 2 hbar^2 x x y has its
    own, and the two classes of the conjugation of s differ by more than
    their labels, which is why a product class reads the id of
    v^{-1}_{g1,g2}."""
    alg, issues = swept(name, M, D)
    assert issues == []
    labels = list(alg.G.group.elements())
    for key, memo in alg._class_products.items():
        pairs = [(g1, g2) for g1 in labels for g2 in labels if (alg._conj_ids[g1], alg._vinv_ids[(g1, g2)]) == key]
        for (w1, w2), table in memo.items():
            for g1, g2 in pairs:
                assert table == unlabelled(per_pair_product_table(alg, (w1, g1), (w2, g2)))
    for f, memo in alg._class_coproducts.items():
        for w, table in memo.items():
            for g in labels:
                if alg._finv_ids[g] == f:
                    assert table == unlabelled(per_slot_coproduct_table(alg, (w, g)))
    basis = [alg.ctx.labeled(w, g) for d in (0, 1) for w in sorted_words(alg.ctx.lba.dim, d) for g in labels]
    for a in basis:
        alg.coproduct(a)
        for b in basis:
            alg.product(a, b)
    for (s1, s2), table in alg._products.items():
        assert table == per_pair_product_table(alg, s1, s2)
    for s, table in alg._coproducts.items():
        assert table == per_slot_coproduct_table(alg, s)
    unit = alg.ctx.unit(1)
    vinv = set(alg._vinv_ids.values())
    if name == "sl2-que.glb":
        assert [alg._inputs[i] for i in vinv] == [unit]
    else:
        assert alg._inputs[alg._vinv_ids[(1, 1)]] != unit and len(vinv) == 2
        first, second = (memo for (c, _), memo in alg._class_products.items() if c == alg._conj_ids[1])
        assert any(first[k] != second[k] for k in first.keys() & second.keys())


def test_unit_factors_skip_the_pair_loop(monkeypatch):
    """On sl2-que.glb at M = 3, D = 6, `quantize_stack` sends 138 of its
    `QueContext.mul` calls through the pair loop `_slot_product`, and the
    axiom sweep after it (the benchmark's order) 686 (478 when each labelled
    product was evaluated): a unit factor returns the other operand, and
    `validate_que_data` evaluates each unordered bracket pair once (516 and
    3,618 when every call took the loop and every ordered pair was
    evaluated).  The sweep's own products are plain: its 432 class products
    (one per label class; 3,744 when each labelled product was evaluated)
    are among the 686, each through the loop, since the crossed product's
    unit [1|e] must not be skipped, and no `CrossedElement` product is
    made."""
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
    assert calls == {HElement: 686, CrossedElement: 0}


@cache
def sl2_d6_sweep() -> SemidirectBialgebra:
    """The sweep of sl2-que.glb at M = 3, D = 6, on an algebra of its own."""
    text = data_path("sl2-que.glb").read_text(encoding="utf-8")
    alg, issues = build_semidirect(build_que_data(parse_problem(text), 3, 6))
    assert issues == []
    return alg


@PROPERTY
@given(data=st.data())
def test_labelled_product_reads_the_sweeps_tables(data):
    """After the sweep, labelled products and coproducts equal the per-term
    formula and build no plain table: a product or coproduct of a label
    reads the plain table its class already holds.  The sweep meets every
    pair of words of degree <= 2 by degree <= 1 (in (ab)c and a(bc)) and
    every word of degree <= 2 (in Delta of products), so the operands stay
    within those."""
    alg = sl2_d6_sweep()
    ctx = alg.ctx
    built = [len(memo) for memo in (*alg._class_products.values(), *alg._class_coproducts.values())]
    x, xx = data.draw(labeled_elements(ctx, 1)), data.draw(labeled_elements(ctx, 2))
    y, yy = data.draw(labeled_elements(ctx, 1, 1)), data.draw(labeled_elements(ctx, 2, 1))
    assert terms(alg.product(x, y)) == terms(oracle_product(alg, x, y))
    assert terms(alg.product(y, x)) == terms(oracle_product(alg, y, x))
    assert terms(alg.coproduct(x)) == terms(oracle_coproduct(alg, x))
    assert terms(alg.product(xx, yy)) == terms(oracle_mul2(alg, xx, yy))
    for slots in (2, 3):
        z = data.draw(labeled_elements(ctx, slots))
        for idx in range(slots):
            assert terms(alg._cop_slot(z, idx)) == terms(oracle_cop_slot(alg, z, idx))
    assert [len(memo) for memo in (*alg._class_products.values(), *alg._class_coproducts.values())] == built
