from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from gammastack.liealg import FiniteGroup, GammaLieBialgebra, LieBialgebra

F = Fraction


def axb_lba() -> LieBialgebra:
    """Basis (x, y), [x,y] = x, delta(x) = 0, delta(y) = x^y."""
    return LieBialgebra(
        2,
        ["x", "y"],
        {(0, 1, 0): F(1), (1, 0, 0): F(-1)},
        {(1, 0, 1): F(1), (1, 1, 0): F(-1)},
    )


def axb_gamma() -> GammaLieBialgebra:
    """Z/2 acting by x -> -x, y -> y; f_sigma = -2 x^y."""
    group = FiniteGroup.cyclic(2, "s")
    theta = {
        0: [[F(1), F(0)], [F(0), F(1)]],
        1: [[F(-1), F(0)], [F(0), F(1)]],
    }
    f = {0: {}, 1: {(0, 1): F(-2), (1, 0): F(2)}}
    return GammaLieBialgebra(axb_lba(), group, theta, f)


def abelian_lba() -> LieBialgebra:
    """2-dim abelian algebra with delta(x) = x^y (dual is the ax+b algebra)."""
    return LieBialgebra(2, ["x", "y"], {}, {(0, 0, 1): F(1), (0, 1, 0): F(-1)})


def abelian_flat_lba() -> LieBialgebra:
    """2-dim abelian algebra with zero cobracket."""
    return LieBialgebra(2, ["x", "y"], {}, {})


def abelian_gamma() -> GammaLieBialgebra:
    """Abelian algebra, theta = id, f = 0 (the trivial stack example)."""
    group = FiniteGroup.cyclic(2, "s")
    ident = [[F(1), F(0)], [F(0), F(1)]]
    return GammaLieBialgebra(abelian_lba(), group, {0: ident, 1: ident}, {0: {}, 1: {}})


def abelian_twisted_gamma() -> GammaLieBialgebra:
    """Abelian algebra with theta_s = diag(-1, 1) and f_s = -2 x^y."""
    group = FiniteGroup.cyclic(2, "s")
    theta = {
        0: [[F(1), F(0)], [F(0), F(1)]],
        1: [[F(-1), F(0)], [F(0), F(1)]],
    }
    f = {0: {}, 1: {(0, 1): F(-2), (1, 0): F(2)}}
    return GammaLieBialgebra(abelian_lba(), group, theta, f)


def sl2_lba() -> LieBialgebra:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h.

    Cobracket from r = e(x)f + h(x)h/4 via delta(z) = [r, z(x)1 + 1(x)z]:
    delta(e) = (h(x)e - e(x)h)/2, delta(f) = (h(x)f - f(x)h)/2, delta(h) = 0.
    """
    bracket = {
        (0, 1, 1): F(2),
        (1, 0, 1): F(-2),
        (0, 2, 2): F(-2),
        (2, 0, 2): F(2),
        (1, 2, 0): F(1),
        (2, 1, 0): F(-1),
    }
    cobracket = {
        (1, 0, 1): F(1, 2),
        (1, 1, 0): F(-1, 2),
        (2, 0, 2): F(1, 2),
        (2, 2, 0): F(-1, 2),
    }
    return LieBialgebra(3, ["h", "e", "f"], bracket, cobracket)


def sl2_r() -> dict[tuple[int, int], Fraction]:
    """Standard r-matrix e(x)f + h(x)h/4 in the (h,e,f) index order."""
    return {(1, 2): F(1), (0, 0): F(1, 4)}


def sl2_weyl_theta() -> dict[int, list[list[Fraction]]]:
    """Z/4 = <w>: theta_w maps h -> -h, e -> -f, f -> -e (order 2)."""
    ident = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    w = [[F(-1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(-1), F(0)]]
    return {0: ident, 1: w, 2: ident, 3: w}


def sl2_weyl_gamma() -> GammaLieBialgebra:
    from tools.bundled import from_quasitriangular

    group = FiniteGroup.cyclic(4, "w")
    return from_quasitriangular(sl2_lba(), group, sl2_weyl_theta(), sl2_r())


def randomized_lift(ctx, leading, seed):
    """A twist lift whose degree-d corrections differ from lift_twist's by
    d(gamma), gamma a random 1-cochain of degree d.

    d(d(gamma)) = 0, so each degree still clears.  From degree 3 on these
    d(gamma) span the 2-cocycles of the degree, which is all the freedom a
    coboundary preimage has, so two seeds give two arbitrary lifts.
    """
    from gammastack.cohomology import cohochschild_d
    from gammastack.stack import _clear_by_degree, twist_defect
    from gammastack.tensors import SparseTensor, monomial_degree, sorted_words

    rng = random.Random(seed)

    def correct(f, betas):
        (beta,) = betas
        deg = monomial_degree(next(iter(beta.coeffs)))
        words = sorted_words(ctx.dim, deg)
        gamma = SparseTensor(1, ctx.trunc, {(w,): F(rng.randint(-2, 2)) for w in words})
        return f + beta + cohochschild_d(gamma)

    return _clear_by_degree(
        leading,
        lambda f, cut: [twist_defect(ctx, f, cut=cut)],
        correct, 3, ctx.trunc, ["twist defect"], "",
    )


def decode(ctx, code: int, slots: int):
    """The n-slot monomial of a packed code: slot s is the PBW word whose
    code is (code >> s W) & (2^W - 1), W = ctx._slot_bits."""
    width = ctx._slot_bits
    return tuple(ctx._code_words[(code >> s * width) & ((1 << width) - 1)] for s in range(slots))


def fraction_coproduct_word(ctx, word) -> dict:
    """Delta_gamma of a 1-slot word as {(left word, right word): Fraction},
    read from the context's table of numerators over ctx._coproduct_den."""
    den = ctx._coproduct_den
    return {k: F(n, den) for k, n in ctx._coproduct_table.get(word, {}).items()}


def one_slot_brackets(ctx) -> dict:
    """The context's 1-slot brackets with their words decoded, in table
    order: {(a, b): ((w, numerator over ctx._bracket_lcm), ...)}."""
    width = ctx._slot_bits
    return {
        (decode(ctx, key >> width, 1)[0], decode(ctx, key, 1)[0]): tuple(
            (decode(ctx, w, 1)[0], c) for w, c in row
        )
        for key, row in ctx._bracket_table.items()
    }


def tuple_pair_bracket(ctx):
    """{m1, m2} on tuple monomials, as the kernel computed it before
    monomials were packed: the sum over slots s of the 1-slot bracket at s
    times the merged other slots, a slot or term past the truncation
    skipped, as (monomial, numerator over ctx._bracket_lcm) pairs in
    first-seen order."""
    from gammastack.tensors import _add_into, merge_slot

    brackets = one_slot_brackets(ctx)

    def pair(m1, m2):
        out: dict = {}
        merged = tuple(merge_slot(a, b) for a, b in zip(m1, m2))
        base_deg = sum(len(s) for s in merged)
        for s in range(len(m1)):
            rest_deg = base_deg - len(merged[s])
            if rest_deg > ctx.trunc:
                continue
            for w, c in brackets.get((m1[s], m2[s]), ()):
                if rest_deg + len(w) <= ctx.trunc:
                    _add_into(out, merged[:s] + (w,) + merged[s + 1 :], c)
        return tuple(out.items())

    return pair


def assert_canonical(x):
    """den >= 1, int numerators, none zero, gcd 1, and zero is {} over 1."""
    assert type(x.den) is int and x.den >= 1
    assert all(type(v) is int and v for v in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1
    assert x.num or x.den == 1


def quantum_terms(x) -> list:
    """The terms of a quantum element in key order, once it is checked:
    canonical, and every key holds x.slots slots with hbar power in [0, M)
    and PBW degree at most D of its context."""
    assert_canonical(x)
    for a, sl in x.num:
        assert len(sl) == x.slots
        assert 0 <= a < x.ctx.M and x._degree(sl) <= x.ctx.D
    return list(x.coeffs.items())


@pytest.fixture
def axb():
    return axb_gamma()


@pytest.fixture
def sl2_weyl():
    return sl2_weyl_gamma()
