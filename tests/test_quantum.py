from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gammastack.cli import data_path
from gammastack.liealg import FiniteGroup, GammaLieBialgebra, LieBialgebra
from gammastack.problemfile import build_que_data, parse_problem
from gammastack.quantum import (
    CrossedElement,
    HElement,
    QuantumError,
    QueContext,
    SemidirectBialgebra,
    _bracket_failures,
    bracket_residual,
    drinfeld_prime_membership,
    drinfeld_prime_membership_general,
    is_admissible,
    primitive_coeffs,
    validate_que_data,
)
from gammastack.tensors import monomial_degree

from tools.bundled import abelian_que_data, sl2_que_data, to_series, trivial_que_data

from conftest import abelian_twisted_gamma, axb_gamma, sl2_weyl_gamma

F = Fraction


def sl2_ctx(M=4, D=6):
    return QueContext(sl2_weyl_gamma(), M, D)


def axb_ctx(M=4, D=6):
    return QueContext(axb_gamma(), M, D)


# -- pbw multiplication ---------------------------------------------------------


def test_context_rejects_elements_of_another_context():
    """mul, Delta and the counit at a slot, and an endomorphism (on its
    argument and on its images) read their own context's tables, so each
    raises on an element of another context: the abelian context would
    multiply sl2's e1 e0 to e0 e1, not e0 e1 - 2 e1."""
    abelian, sl2 = abelian_que_data().ctx, sl2_que_data().ctx
    x, y = sl2.gen(1), sl2.gen(0)
    identity = [abelian.gen(0), abelian.gen(1)]
    calls = [
        lambda: abelian.mul(x, y),
        lambda: abelian.coproduct_slot(x, 0),
        lambda: abelian.counit_slot(x, 0),
        lambda: abelian.apply_endo(identity, x),
        # an image the argument never reaches
        lambda: abelian.apply_endo([abelian.gen(0), x], abelian.gen(0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="incompatible elements"):
            call()
    assert sl2.mul(x, y) == sl2.mul(y, x) - sl2.gen(1).scale(2)
    assert abelian.apply_endo(identity, abelian.gen(0)) == abelian.gen(0)


def test_commutator_is_bracket():
    ctx = sl2_ctx()
    h, e, f = ctx.gen(0), ctx.gen(1), ctx.gen(2)
    assert h * e - e * h == e.scale(2)
    assert h * f - f * h == f.scale(-2)
    assert e * f - f * e == h


def ordered_bracket_failures(ctx, images):
    """The bracket check of every ordered pair i != j, each evaluated."""
    dim = ctx.lba.dim
    return [
        (i, j) for i in range(dim) for j in range(dim) if i != j and not bracket_residual(ctx, images, i, j).is_zero()
    ]


def test_bracket_failures_evaluate_each_unordered_pair_once(monkeypatch):
    """`validate_que_data` checks the bracket relation on each unordered pair
    once and reports (j, i) with (i, j) when c_ji = -c_ij, in row order: the
    same pairs as evaluating every ordered pair.  sl2-que.glb past its
    generated order fails at (1,2) and (2,1); a one-sided bracket table
    (c_01 stated, c_10 not) makes (1, 0) evaluated on its own; and on
    sl2-que at M = 3, D = 6 validation makes 15 `bracket_residual` calls
    (30 for every ordered pair)."""
    text = data_path("sl2-que.glb").read_text(encoding="utf-8")
    failing = build_que_data(parse_problem(text), 4, 6)
    ctx = failing.ctx
    assert _bracket_failures(ctx, ctx.delta_images) == [(1, 2), (2, 1)]
    for images in [ctx.delta_images, *failing.i_images.values(), [ctx.gen(1), ctx.gen(0), ctx.gen(2)]]:
        assert _bracket_failures(ctx, images) == ordered_bracket_failures(ctx, images)
    one_sided = LieBialgebra(2, ["x", "y"], {(0, 1, 0): 1}, {})
    ident = [[1, 0], [0, 1]]
    lopsided = QueContext(GammaLieBialgebra(one_sided, FiniteGroup.cyclic(1, "e"), {0: ident}, {0: {}}), 2, 3)
    gens = [lopsided.gen(0), lopsided.gen(1)]
    assert _bracket_failures(lopsided, gens) == ordered_bracket_failures(lopsided, gens) == [(0, 1)]
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return bracket_residual(*args)

    monkeypatch.setattr("gammastack.quantum.bracket_residual", counted)
    assert validate_que_data(build_que_data(parse_problem(text), 3, 6)) == []
    assert len(calls) == 15 and all(i < j for i, j in calls)


def test_group_conjugation():
    # i = id and v = 1, so this is the crossed product U(g) x| Gamma
    alg = SemidirectBialgebra(trivial_que_data(3, 4))
    ctx = alg.ctx
    s = ctx.labeled((), 1)
    x = ctx.labeled((0,), 0)
    s_inv = ctx.labeled((), ctx.G.group.inverse[1])
    # [s][x][s^{-1}] = [theta_s(x)] = [-x]
    prod = alg.product(alg.product(s, x), s_inv)
    assert prod == ctx.labeled((0,), 0).scale(-1)


@pytest.mark.parametrize(
    "slots, key, c",
    [
        (2, (0, ((0,),)), 0),  # zero coefficient
        (2, (3, ((0,),)), 1),  # hbar power at M
        (2, (0, ((0,) * 5,)), 1),  # PBW degree past D
        (1, (0, ((0,), (1,))), 1),  # a kept term, as before
    ],
    ids=["zero", "hbar-at-M", "degree-past-D", "kept"],
)
def test_helement_checks_the_slot_count_of_every_key(slots, key, c):
    """A key with the wrong slot count is rejected even when its term would
    be dropped, as SparseTensor rejects it."""
    ctx = sl2_ctx(M=3, D=4)
    with pytest.raises(ValueError, match="slot count mismatch"):
        HElement(ctx, slots, {key: c})


@pytest.mark.parametrize("c", [0, 1], ids=["zero", "kept"])
def test_helement_rejects_a_word_out_of_pbw_order(c):
    """Every word of a key must be a PBW word, letters in increasing order,
    even when its term would be dropped, in plain and labeled slots alike:
    `mul` returns the other operand of a unit factor as it is."""
    ctx = sl2_ctx(M=3, D=4)
    for cls, empty, slot in ((HElement, (), (1, 0)), (CrossedElement, ((), 0), ((1, 0), 0))):
        with pytest.raises(ValueError, match="not a PBW word"):
            cls(ctx, 2, {(0, (empty, slot)): c})


def test_mul_rejects_labeled_slots():
    ctx = axb_ctx()
    x = ctx.labeled((0,), 0)
    with pytest.raises(ValueError, match="plain slots"):
        ctx.mul(x, x)
    with pytest.raises(ValueError, match="plain slots"):
        ctx.mul(ctx.gen(0), x)


def test_plain_and_crossed_elements_do_not_mix():
    """Sums reject a plain operand with a crossed one, and the crossed
    product and coproduct reject plain elements."""
    alg = SemidirectBialgebra(trivial_que_data(3, 4))
    ctx = alg.ctx
    x, gx = ctx.gen(0), ctx.labeled((0,), 0)
    with pytest.raises(ValueError):
        x + gx
    with pytest.raises(ValueError):
        gx - x
    for a, b in ((x, x), (x, gx), (gx, x)):
        with pytest.raises(ValueError, match="labeled"):
            alg.product(a, b)
    with pytest.raises(ValueError, match="labeled"):
        alg.coproduct(x)
    with pytest.raises(ValueError, match="plain slots"):
        ctx.coproduct_slot(gx, 0)
    with pytest.raises(ValueError, match="plain slots"):
        ctx.apply_endo(ctx.theta_images(1), gx)


def test_to_series_and_membership_reject_crossed_elements():
    """A (word, group element) slot is not a word: reading it as a series
    monomial or scoring its degree for membership raises, while the plain
    element with the same word goes through."""
    ctx = trivial_que_data(3, 4).ctx
    x, gx = ctx.gen(0), ctx.labeled((0,), 1)
    assert to_series(x).coeffs == {((0,),): F(1)}
    assert drinfeld_prime_membership(x) == (False, (0, ((0,),)))
    with pytest.raises(ValueError, match="plain slots"):
        to_series(gx)
    with pytest.raises(ValueError, match="plain slots"):
        drinfeld_prime_membership(gx)


def test_abelian_product_symmetric():
    ctx = QueContext(abelian_twisted_gamma(), 3, 6)
    x, y = ctx.gen(0), ctx.gen(1)
    assert x * y == y * x


def test_coproduct_defaults_to_primitive():
    """A generator left out of the coproduct coefficients is primitive; the
    context is cocommutative exactly when every image is primitive."""
    G = abelian_twisted_gamma()
    ctx = QueContext(G, 3, 4, {})
    assert ctx.cocommutative
    assert ctx.delta_images == [HElement(ctx, 2, primitive_coeffs(i)) for i in range(2)]
    x, y = (0,), (1,)
    image = {**primitive_coeffs(0), (1, (x, y)): F(1, 2), (1, (y, x)): F(-1, 2)}
    ctx = QueContext(G, 3, 4, {0: image})
    assert not ctx.cocommutative
    assert ctx.delta_images[0] == HElement(ctx, 2, image)
    assert ctx.delta_images[1] == HElement(ctx, 2, primitive_coeffs(1))


def test_invert_endo_corrects_a_nonlinear_hbar_term():
    """x -> x + hbar y^2, y -> y + hbar x^2 has identity linear part, so the
    inverse needs the correction step; it composes to the identity on
    generators both ways."""
    from gammastack.quantum import linear_leading_inverse

    ctx = QueContext(abelian_twisted_gamma(), 3, 6)
    x, y = ctx.gen(0), ctx.gen(1)
    images = [
        x + HElement(ctx, 1, {(1, ((1, 1),)): F(1)}),
        y + HElement(ctx, 1, {(1, ((0, 0),)): F(1)}),
    ]
    assert linear_leading_inverse(ctx, images) == [x, y]
    inv = ctx.invert_endo(images)
    assert inv != [x, y]
    for i in range(2):
        assert ctx.apply_endo(images, inv[i]) == ctx.gen(i)
        assert ctx.apply_endo(inv, images[i]) == ctx.gen(i)


def test_equal_image_lists_share_one_inverse_and_one_word_table(monkeypatch):
    """Two equal image lists built apart are one memo key: the second
    inversion reuses the first (one linear solve), and both lists read one
    table of word images."""
    import gammastack.quantum as quantum

    ctx = QueContext(abelian_twisted_gamma(), 3, 6)

    def images():
        x, y = ctx.gen(0), ctx.gen(1)
        return [x + HElement(ctx, 1, {(1, ((1, 1),)): F(1)}), y + HElement(ctx, 1, {(1, ((0, 0),)): F(1)})]

    first, second = images(), images()
    assert first == second and first[0] is not second[0]
    solves = [0]
    real_solve = quantum.solve_linear

    def solve(system):
        solves[0] += 1
        return real_solve(system)

    monkeypatch.setattr(quantum, "solve_linear", solve)
    inverse, again = ctx.invert_endo(first), ctx.invert_endo(second)
    assert solves == [1] and again is inverse
    ctx._endo_word_cache.clear()
    x = ctx.gen(0) * ctx.gen(1)
    assert ctx.apply_endo(first, x) == ctx.apply_endo(second, x)
    assert len(ctx._endo_word_cache) == 1


def test_pbw_associativity_random():
    # the degree cap D is a safety net, not an ideal: associativity is exact
    # whenever products stay within D, which the coupling deg <= 2*hbar + 1
    # of all pipeline data guarantees; the test keeps factors inside that
    rng = random.Random(1)
    ctx = sl2_ctx(M=3, D=9)
    words = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 0, 2)]

    def rand_elt():
        return HElement(
            ctx,
            1,
            {
                (rng.randint(0, 1), (w,)): F(rng.randint(-2, 2))
                for w in rng.sample(words, 3)
            },
        )

    for _ in range(6):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)


def test_exp_log_roundtrip():
    ctx = sl2_ctx()
    z = HElement(ctx, 1, {(1, ((0, 1),)): F(1), (2, ((2,),)): F(-2)})
    x = ctx.exp(z)
    assert ctx.log(x) == z
    assert ctx.mul(x, ctx.inverse(x)) == ctx.unit(1)


# -- Drinfeld subalgebra membership ----------------------------------------------


def test_membership_fast_examples():
    ctx = sl2_ctx()
    hx = ctx.gen(0).hbar_shift(1)
    ok, _ = drinfeld_prime_membership(hx)
    assert ok
    x = ctx.gen(0)
    ok, witness = drinfeld_prime_membership(x)
    assert not ok and witness == (0, ((0,),))
    xy2 = HElement(ctx, 1, {(2, ((0, 1),)): F(1)})
    ok, _ = drinfeld_prime_membership(xy2)
    assert ok


def test_membership_general_unit_and_primitive():
    ctx = sl2_ctx()
    ok, _ = drinfeld_prime_membership_general(ctx.unit(1))
    assert ok
    ok, _ = drinfeld_prime_membership_general(ctx.gen(1).hbar_shift(1))
    assert ok


def test_membership_general_agrees_with_fast():
    rng = random.Random(7)
    ctx = sl2_ctx(M=3, D=4)
    words = [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2), (2, 2)]
    for _ in range(60):
        coeffs = {}
        for _k in range(3):
            a = rng.randint(0, 2)
            w = rng.choice(words)
            coeffs[(a, (w,))] = F(rng.randint(-3, 3))
        x = HElement(ctx, 1, coeffs)
        fast, _ = drinfeld_prime_membership(x)
        gen, _ = drinfeld_prime_membership_general(x)
        assert fast == gen, x.format()


def test_membership_multiplicative():
    rng = random.Random(9)
    ctx = sl2_ctx(M=4, D=6)
    words = [(), (0,), (2,), (0, 1)]
    for _ in range(40):
        def member():
            coeffs = {}
            for _k in range(2):
                w = rng.choice(words)
                a = rng.randint(len(w), ctx.M - 1)
                coeffs[(a, (w,))] = F(rng.randint(-2, 2))
            return HElement(ctx, 1, coeffs)

        x, y = member(), member()
        okx, _ = drinfeld_prime_membership(x)
        oky, _ = drinfeld_prime_membership(y)
        assert okx and oky
        ok, _ = drinfeld_prime_membership(x * y)
        assert ok


# -- admissibility ------------------------------------------------------------------


def test_admissible_unit():
    ctx = sl2_ctx()
    ok, _ = is_admissible(ctx.unit(1))
    assert ok


def test_admissible_exp_hbar_primitive():
    ctx = sl2_ctx()
    x = ctx.exp(ctx.gen(1).hbar_shift(1))
    ok, _ = is_admissible(x)
    assert ok


def test_not_admissible_degree2_y():
    # x = 1 + hbar y with y of PBW degree 2: hbar log x = hbar^2 y - hbar^3 y^2/2 + ...
    # the y^2 term has degree 4 > 3: not admissible, witness the hbar^3 term
    ctx = sl2_ctx(M=4, D=6)
    y = HElement(ctx, 1, {(1, ((0, 1),)): F(1)})
    x = ctx.unit(1) + y
    ok, witness = is_admissible(x)
    assert not ok
    assert witness[0] == 3
    assert monomial_degree(witness[1]) == 4


def test_admissible_requires_one_plus_hbar():
    ctx = sl2_ctx()
    with pytest.raises(QuantumError):
        is_admissible(ctx.unit(1) + ctx.gen(0))
