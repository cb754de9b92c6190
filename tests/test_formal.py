from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction
from math import factorial, lcm

import pytest

from gammastack.cli import data_path
from gammastack.formal import (
    PairingContext,
    _compositions,
    bch_apply,
    bch_apply_recursion,
    bch_lyndon_terms,
    bch_word_terms,
    bernoulli,
    build_delta_gamma,
    cocommutative_splits,
    lyndon_words,
    standard_factorisation,
    _free_mul,
)
from gammastack.liealg import LieBialgebra
from gammastack.problemfile import parse_problem
from gammastack.tensors import (
    SparseTensor,
    _add_into,
    merge_slot,
    monomial_degree,
    multiset_factor,
    slot_monomials,
    sorted_words,
    tensor_unit,
    unit_monomial,
)

from conftest import (
    abelian_flat_lba,
    abelian_lba,
    axb_gamma,
    axb_lba,
    decode,
    one_slot_brackets,
    sl2_lba,
    sl2_weyl_gamma,
    tuple_pair_bracket,
)

F = Fraction


# -- build_delta_gamma ---------------------------------------------------------


def test_delta_gamma_identity_unchanged(axb):
    out = build_delta_gamma(axb, axb.group.identity)
    assert out.cobracket == axb.lba.cobracket


def test_delta_gamma_sigma_is_minus_delta(axb):
    # hand expansion: delta_sigma(y) = delta(y) - 2 delta(y) = -delta(y), delta_sigma(x) = 0
    out = build_delta_gamma(axb, 1)
    assert out.cobracket == {(1, 0, 1): F(-1), (1, 1, 0): F(1)}


def test_delta_gamma_abelian_trivial_f():
    from conftest import abelian_gamma

    G = abelian_gamma()
    for g in G.group.elements():
        assert build_delta_gamma(G, g).cobracket == G.lba.cobracket


# -- contexts -------------------------------------------------------------------


def ctx_for(lba, N=4):
    return PairingContext(lba, N)


def bundled_classical_contexts():
    """A fresh context for each group element of each bundled classical
    problem, at the file's own truncation."""
    out = []
    for name in ("abelian", "axb", "sl2-weyl"):
        problem = parse_problem(data_path(f"{name}.glb").read_text(encoding="utf-8"))
        for g in problem.G.group.elements():
            out.append(PairingContext(build_delta_gamma(problem.G, g), problem.degree))
    return out


def test_product_unit_and_commutativity():
    ctx = ctx_for(axb_lba())
    a = ctx.series({((0, 1),): F(3), ((0,),): F(1)})
    one = SparseTensor.unit(1, ctx.trunc)
    assert a * one == a
    x = ctx.series({((0,),): F(1)})
    y = ctx.series({((1,),): F(1)})
    assert x * y == y * x
    assert (x * y).coeffs == {((0, 1),): F(1)}


def test_product_matches_naive_convolution():
    rng = random.Random(5)
    ctx = ctx_for(axb_lba(), N=4)
    monos = [w for w in ctx._pbw if len(w) <= 2]

    def rand_series():
        return ctx.series(
            {(w,): F(rng.randint(-3, 3)) for w in rng.sample(monos, 3)}
        )

    for _ in range(10):
        a, b = rand_series(), rand_series()
        prod = a * b
        naive: dict = {}
        for (w1,), c1 in a.coeffs.items():
            for (w2,), c2 in b.coeffs.items():
                if len(w1) + len(w2) <= 4:
                    key = (tuple(sorted(w1 + w2)),)
                    naive[key] = naive.get(key, F(0)) + c1 * c2
        naive = {k: v for k, v in naive.items() if v}
        assert prod.coeffs == naive


def test_coproduct_primitive_degree_one():
    ctx = ctx_for(axb_lba())
    x = ctx.series({((0,),): F(1)})
    d = ctx.coproduct(x)
    # degree-(1,0)/(0,1) parts are primitive; deformation may add higher terms
    assert d.coeffs.get((((0,)), ()), 0) == 1
    assert d.coeffs.get(((), ((0,))), 0) == 1
    low = {m: c for m, c in d.coeffs.items() if monomial_degree(m) == 1}
    assert low == {((0,), ()): F(1), ((), (0,)): F(1)}


def test_coproduct_abelian_flat_binomial():
    ctx = ctx_for(abelian_flat_lba())
    x2 = ctx.series({((0, 0),): F(1)})
    d = ctx.coproduct(x2)
    assert d.coeffs == {
        ((0, 0), ()): F(1),
        ((0,), (0,)): F(2),
        ((), (0, 0)): F(1),
    }


def test_coproduct_against_bruteforce_pairing():
    """Independent oracle: multiply PBW words naively letter by letter."""
    lba = axb_lba()
    ctx = ctx_for(lba, N=3)

    def naive_mult(w1, w2):
        # multiply letter by letter using only the bracket table
        terms = {w1: F(1)}
        for letter in w2:
            nxt: dict = {}
            for w, c in terms.items():
                stack = [(w + (letter,), c)]
                while stack:
                    ww, cc = stack.pop()
                    # bubble the last letter into sorted position
                    pos = len(ww) - 1
                    while pos > 0 and ww[pos - 1] > ww[pos]:
                        a, b = ww[pos - 1], ww[pos]
                        # ab (out of order) = ba + [a,b]
                        for k, ck in lba_dual_bracket(a, b).items():
                            stack.append((ww[: pos - 1] + (k,) + ww[pos + 1 :], cc * ck))
                        ww = ww[: pos - 1] + (b, a) + ww[pos + 1 :]
                        pos -= 1
                    nxt[ww] = nxt.get(ww, F(0)) + cc
            terms = {k: v for k, v in nxt.items() if v}
        return terms

    def lba_dual_bracket(i, j):
        out = {}
        for (k, a, b), c in lba.cobracket.items():
            if (a, b) == (i, j):
                out[k] = out.get(k, F(0)) + c
        return out

    from gammastack.tensors import multiset_factor

    quad = ((0, 1),)  # the monomial x*y
    d = ctx.coproduct(ctx.series({quad: F(1)}))
    expected: dict = {}
    for b1 in ctx._pbw:
        for b2 in ctx._pbw:
            if len(b1) + len(b2) > 3:
                continue
            prod = naive_mult(b1, b2)
            c = prod.get(quad[0])
            if c:
                val = c * multiset_factor(quad[0]) / (multiset_factor(b1) * multiset_factor(b2))
                key = (b1, b2)
                expected[key] = expected.get(key, F(0)) + val
    expected = {k: v for k, v in expected.items() if v}
    assert d.coeffs == expected


def test_coassociativity_exact():
    for lba in (axb_lba(), sl2_lba(), abelian_lba()):
        ctx = ctx_for(lba, N=3)
        for w in ctx._pbw:
            if not 0 < len(w) <= 2:
                continue
            a = ctx.series({(w,): F(1)})
            d = ctx.coproduct(a)
            left = ctx.coproduct_slot(d, 0)
            right = ctx.coproduct_slot(d, 1)
            assert left == right, f"coassociativity fails at {w}"


def test_coproduct_algebra_morphism():
    ctx = ctx_for(axb_lba(), N=4)
    a = ctx.series({((0,),): F(1), ((1, 1),): F(2)})
    b = ctx.series({((1,),): F(1)})
    assert ctx.coproduct(a * b) == ctx.coproduct(a) * ctx.coproduct(b)


def test_counit_is_constant_term():
    ctx = ctx_for(axb_lba())
    a = ctx.series({((0, 1),): F(5), ((),): F(7)})
    assert a.coeffs.get(((),), 0) == 7
    d = ctx.coproduct(a)
    # (eps (x) id) Delta = id
    left = {m[1]: c for m, c in d.coeffs.items() if m[0] == ()}
    assert left == {m[0]: c for m, c in a.coeffs.items()}


# -- Poisson bracket -------------------------------------------------------------


def test_poisson_degree_one_is_lie_bracket():
    for lba in (axb_lba(), sl2_lba()):
        ctx = ctx_for(lba, N=3)
        for i in range(lba.dim):
            for j in range(lba.dim):
                x = ctx.series({((i,),): F(1)})
                y = ctx.series({((j,),): F(1)})
                br = ctx.poisson(x, y)
                deg1 = br.homogeneous_part(1)
                expected = {((k,),): c for k, c in lba.bracket_elems(i, j).items()}
                assert deg1.coeffs == expected


def test_poisson_abelian_zero():
    ctx = ctx_for(abelian_lba(), N=4)
    a = ctx.series({((0, 1),): F(1)})
    b = ctx.series({((1, 1),): F(2), ((0,),): F(1)})
    assert ctx.poisson(a, b).is_zero()


def test_poisson_antisymmetry_and_leibniz():
    ctx = ctx_for(axb_lba(), N=4)
    monos = [((0,),), ((1,),), ((0, 1),), ((1, 1),)]
    series = [ctx.series({m: F(1)}) for m in monos]
    for a in series:
        for b in series:
            assert ctx.poisson(a, b) == ctx.poisson(b, a).scale(-1)
    # Leibniz: {ab, c} = a{b,c} + {a,c}b
    a, b, c = series[0], series[1], series[3]
    assert ctx.poisson(a * b, c) == a * ctx.poisson(b, c) + ctx.poisson(a, c) * b
    # {e_i, m} = -{m, e_i} for every generator and PBW word
    for ctx in bundled_classical_contexts():
        for i in range(ctx.dim):
            gen = SparseTensor.generator(i, ctx.trunc)
            for w in ctx._pbw:
                m = ctx.series({(w,): F(1)})
                assert ctx.poisson(gen, m) == ctx.poisson(m, gen).scale(-1), (i, w)


def test_poisson_jacobi():
    ctx = ctx_for(sl2_lba(), N=3)
    a = ctx.series({((0,),): F(1)})
    b = ctx.series({((1, 2),): F(1)})
    c = ctx.series({((2,),): F(1)})
    jac = (
        ctx.poisson(a, ctx.poisson(b, c))
        + ctx.poisson(b, ctx.poisson(c, a))
        + ctx.poisson(c, ctx.poisson(a, b))
    )
    assert jac.is_zero()


def test_poisson_xy_y_equals_leibniz_expansion():
    # {xy, y} = {x,y} y exactly (Leibniz oracle from degree-1 values)
    ctx = ctx_for(axb_lba(), N=3)
    x = ctx.series({((0,),): F(1)})
    y = ctx.series({((1,),): F(1)})
    assert ctx.poisson(x * y, y) == ctx.poisson(x, y) * y


def test_coproduct_is_poisson_map():
    """Delta_gamma is a Poisson map for the product-Poisson structure."""
    for lba in (axb_lba(), sl2_lba()):
        ctx = ctx_for(lba, N=3)
        gens = [ctx.series({((i,),): F(1)}) for i in range(lba.dim)]
        for a in gens:
            for b in gens:
                lhs = ctx.coproduct(ctx.poisson(a, b))
                rhs = ctx.poisson(ctx.coproduct(a), ctx.coproduct(b))
                assert lhs == rhs


def test_tangent_extraction():
    """(1,1) part of (Delta - Delta^op)(x) recovers the deformed cobracket."""
    G = axb_gamma()
    for g in G.group.elements():
        lba_g = build_delta_gamma(G, g)
        ctx = ctx_for(lba_g, N=3)
        for k in range(lba_g.dim):
            d = ctx.coproduct(ctx.series({((k,),): F(1)}))
            flip = SparseTensor(2, 3, {(m[1], m[0]): c for m, c in d.coeffs.items()})
            anti = d - flip
            got = {
                (m[0][0], m[1][0]): c
                for m, c in anti.coeffs.items()
                if monomial_degree(m) == 2 and len(m[0]) == 1 and len(m[1]) == 1
            }
            expect = {
                (i, j): c for (kk, i, j), c in lba_g.cobracket.items() if kk == k
            }
            assert got == expect


# -- BCH kernels -----------------------------------------------------------------


def test_bch_word_terms_first_principles():
    """exp(sum of word terms bracketed) is checked against exp(x)exp(y) in the
    free associative algebra, through degree 5."""
    nmax = 5
    terms = bch_word_terms(nmax)

    # evaluate the Dynkin projection with the commutator bracket into the
    # free associative algebra, sum, exponentiate, compare.
    def comm(p, q):
        out = dict(_free_mul(p, q, nmax))
        for w, c in _free_mul(q, p, nmax).items():
            out[w] = out.get(w, F(0)) - c
            if not out[w]:
                del out[w]
        return out

    def nested(word):
        if len(word) == 1:
            return {(word[0],): F(1)}
        inner = nested(word[1:])
        return comm({(word[0],): F(1)}, inner)

    z: dict = {}
    for coeff, word in terms:
        for w, c in nested(word).items():
            z[w] = z.get(w, F(0)) + coeff / len(word) * c
            if not z[w]:
                del z[w]
    # exp(z)
    ez: dict = {(): F(1)}
    power: dict = {(): F(1)}
    for k in range(1, nmax + 1):
        power = _free_mul(power, z, nmax)
        for w, c in power.items():
            ez[w] = ez.get(w, F(0)) + c / factorial(k)
    ez = {w: c for w, c in ez.items() if c}
    ex = {tuple([0] * k): F(1, factorial(k)) for k in range(nmax + 1)}
    ey = {tuple([1] * k): F(1, factorial(k)) for k in range(nmax + 1)}
    expected = _free_mul(ex, ey, nmax)
    assert ez == expected


def test_bernoulli_values():
    assert [bernoulli(n) for n in range(7)] == [
        F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)
    ]


class FreeElt:
    """Element of the free associative algebra on {0, 1}, as {word: coeff}."""

    def __init__(self, d):
        self.d = {w: c for w, c in d.items() if c}

    def __add__(self, other):
        out = dict(self.d)
        for w, c in other.d.items():
            out[w] = out.get(w, F(0)) + c
        return FreeElt(out)

    def scale(self, c):
        return FreeElt({w: c * v for w, v in self.d.items()})


def free_commutator(nmax):
    """The commutator bracket of FreeElt, words longer than nmax dropped, and
    a counter of its calls."""
    calls = [0]

    def br(a, b):
        calls[0] += 1
        out = dict(_free_mul(a.d, b.d, nmax))
        for w, c in _free_mul(b.d, a.d, nmax).items():
            out[w] = out.get(w, F(0)) - c
        return FreeElt(out)

    return br, calls


FREE_X = FreeElt({(0,): F(1)})
FREE_Y = FreeElt({(1,): F(1)})


@pytest.mark.parametrize("nmax", [5, 9])
def test_bch_recursion_agrees_with_word_series(nmax):
    """Both BCH kernels agree on the free associative commutator algebra,
    through nmax 9: the operand count `stack -N 10` evaluates."""
    br, _ = free_commutator(nmax)
    a = bch_apply(br, FREE_X, FREE_Y, nmax)
    b = bch_apply_recursion(br, FREE_X, FREE_Y, nmax)
    assert a.d == b.d


def test_lyndon_word_counts_match_witt_formula():
    """Lyndon words per length on two letters: (1/n) sum_{d|n} mu(d) 2^(n/d)."""

    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    witt = [
        sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, 9)
    ]
    assert witt == [2, 1, 2, 3, 6, 9, 18, 30]
    words = lyndon_words(8)
    assert [sum(1 for w in words if len(w) == n) for n in range(1, 9)] == witt
    assert words == sorted(words, key=lambda w: (len(w), w))
    for w in words[2:]:
        u, v = standard_factorisation(w)
        assert u + v == w and u in words and v in words and u < v


def test_lyndon_bch_equals_word_series_through_degree_8():
    """sum c_w [w] with the free commutator is log(exp(x) exp(y)) word by
    word, and only the brackets of nonzero terms and their factors are
    evaluated, each once."""
    nmax = 8
    br, calls = free_commutator(nmax)
    z = bch_apply(br, FREE_X, FREE_Y, nmax)
    assert z.d == {w: c for c, w in bch_word_terms(nmax)}
    terms, factors = bch_lyndon_terms(nmax)
    needed: set = set()

    def close(w):
        if len(w) > 1 and w not in needed:
            needed.add(w)
            for part in factors[w]:
                close(part)

    for _c, w in terms:
        close(w)
    assert calls[0] == len(needed)
    assert len(lyndon_words(nmax)) - 2 == len(factors)


def test_lyndon_tables_are_prefixes_of_the_largest():
    """The table for nmax is the length-<=nmax prefix of a larger one, in
    the same order with the same factorisations, which lets `bch_star` sum
    a prefix of its context's one table under every cut."""
    big_terms, big_factors = bch_lyndon_terms(9)
    big_factors = list(big_factors.items())
    for nmax in range(2, 10):
        terms, factors = bch_lyndon_terms(nmax)
        assert terms == big_terms[: len(terms)]
        assert list(factors.items()) == big_factors[: len(factors)]
        assert all(len(w) > nmax for _c, w in big_terms[len(terms) :])
        assert all(len(w) > nmax for w, _uv in big_factors[len(factors) :])


def test_bch_star_reads_one_lyndon_table_under_every_cut():
    """Every cut of a truncation-6 context reads the one nmax-5 table."""
    ctx = ctx_for(axb_lba(), N=6)
    f = ctx.series({((0, 1),): F(1), ((1, 1, 1),): F(2)})
    g = ctx.series({((0, 0),): F(1), ((0, 1, 1),): F(-1)})
    bch_lyndon_terms.cache_clear()
    for cut in range(2, 7):
        ctx.bch_star(f, g, cut)
    assert bch_lyndon_terms.cache_info().misses == 1


def seed_recursion(bracket_fn, x, y, nmax):
    """The Bernoulli recursion with every nested bracket evaluated afresh."""
    xy = x + y
    z = [None, xy]
    for n in range(1, nmax):
        acc = bracket_fn(x + y.scale(-1), z[n]).scale(F(1, 2))
        for p in range(1, n // 2 + 1):
            coeff = bernoulli(2 * p) / factorial(2 * p)
            if coeff == 0:
                continue
            for ks in _compositions(n, 2 * p):
                term = xy
                for k in reversed(ks):
                    term = bracket_fn(z[k], term)
                acc = acc + term.scale(coeff)
        z.append(acc.scale(F(1, n + 1)))
    total = z[1]
    for n in range(2, nmax + 1):
        total = total + z[n]
    return total


@pytest.mark.parametrize("nmax", range(1, 8))
def test_memoised_recursion_equals_unshared_recursion(nmax):
    br, calls = free_commutator(nmax)
    got = bch_apply_recursion(br, FREE_X, FREE_Y, nmax)
    br_ref, calls_ref = free_commutator(nmax)
    expected = seed_recursion(br_ref, FREE_X, FREE_Y, nmax)
    assert list(got.d.items()) == list(expected.d.items())
    assert calls[0] <= calls_ref[0]
    assert got.d == {w: c for c, w in bch_word_terms(nmax)}


def test_capped_recursion_bracket_counts():
    """At trunc N the star products stop at N - 1 operands: the memoised
    recursion then brackets 2 / 5 / 9 / 16 times at N = 4 / 5 / 6 / 7, with
    the brackets that vanish by antisymmetry skipped (4 / 8 / 15 / 28
    before)."""
    counts = []
    for N in range(4, 8):
        br, calls = free_commutator(N - 1)
        bch_apply_recursion(br, FREE_X, FREE_Y, N - 1)
        counts.append(calls[0])
    assert counts == [2, 5, 9, 16]


@pytest.mark.parametrize("nmax", range(2, 10))
def test_recursion_brackets_no_operand_with_itself_and_no_zero(nmax):
    """On the free commutator algebra, no bracket the recursion evaluates
    has two equal operands or the value 0: the brackets fixed at 0 by
    antisymmetry alone are skipped, and the result is still the BCH
    series."""
    br, _ = free_commutator(nmax)
    seen = []

    def spy(a, b):
        out = br(a, b)
        seen.append((a.d == b.d, not out.d))
        return out

    z = bch_apply_recursion(spy, FREE_X, FREE_Y, nmax)
    assert seen and not any(equal or zero for equal, zero in seen)
    assert z.d == {w: c for c, w in bch_word_terms(nmax)}


def test_bch_star_abelian_additive():
    ctx = ctx_for(abelian_lba(), N=4)
    f = ctx.series({((0, 0),): F(1)})
    g = ctx.series({((1, 1),): F(2), ((0, 1),): F(-1)})
    assert ctx.bch_star(f, g) == f + g


def test_bch_star_inverse_and_unit():
    ctx = ctx_for(axb_lba(), N=5)
    f = ctx.series({((0, 1),): F(1), ((1, 1, 1),): F(2)})
    zero = ctx.zero()
    assert ctx.bch_star(f, zero) == f
    assert ctx.bch_star(f, f.scale(-1)).is_zero()
    assert ctx.bch_star(f.scale(-1), f).is_zero()


def test_bch_star_associative():
    ctx = ctx_for(axb_lba(), N=5)
    f = ctx.series({((0, 1),): F(1)})
    g = ctx.series({((1, 1),): F(1)})
    h = ctx.series({((0, 0),): F(1), ((0, 1, 1),): F(-1)})
    left = ctx.bch_star(ctx.bch_star(f, g), h)
    right = ctx.bch_star(f, ctx.bch_star(g, h))
    assert left == right


def test_bch_star_rejects_low_degree():
    ctx = ctx_for(axb_lba(), N=4)
    bad = ctx.series({((0,),): F(1)})
    with pytest.raises(ValueError, match="degree < 2"):
        ctx.bch_star(bad, ctx.zero())


from hypothesis import given, settings, strategies as st


@given(
    st.integers(3, 5),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(1, 3),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_bch_lemma_translation_invariance(n, fc, hc, gc, seed):
    """f * (h + g) = f * h + g mod m^{n+1} when g is in m^n, both orders."""
    rng = random.Random(seed)
    ctx = ctx_for(axb_lba(), N=5)
    deg2 = [((0, 1),), ((0, 0),), ((1, 1),)]
    f = ctx.series({m: F(c) for m, c in zip(deg2, fc)})
    h = ctx.series({m: F(c) for m, c in zip(deg2, hc)})
    gm = tuple(sorted(rng.choices([0, 1], k=n)))
    g = ctx.series({(gm,): F(gc)})
    diff = ctx.bch_star(f, h + g) - (ctx.bch_star(f, h) + g)
    assert all(monomial_degree(m) >= n + 1 for m in diff.coeffs)
    diff2 = ctx.bch_star(f + g, h) - (ctx.bch_star(f, h) + g)
    assert all(monomial_degree(m) >= n + 1 for m in diff2.coeffs)


def fraction_poisson(ctx: PairingContext, a: SparseTensor, b: SparseTensor) -> dict:
    """Reference Poisson bracket: the Fraction sum over every monomial pair,
    skipped or not, of the tuple pair bracket read as numerators over L."""
    pair = tuple_pair_bracket(ctx)
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            for m, c in pair(m1, m2):
                _add_into(out, m, c1 * c2 * F(c, ctx._bracket_lcm))
    return out


@st.composite
def poisson_operands(draw):
    """Truncation and two random series on 1-3 slots of mixed degree <= trunc."""
    trunc = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))

    def monomial():
        total = draw(st.integers(0, trunc))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        lengths = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
        return tuple(
            tuple(sorted(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))))
            for k in lengths
        )

    def series():
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=6))
        return {monomial(): F(p, q) for p, q in terms}

    return trunc, n, series(), series()


@given(poisson_operands())
@settings(max_examples=60, deadline=None)
def test_poisson_pair_skip_changes_nothing(operands):
    """poisson equals the unpruned sum over all monomial pairs, term order
    included, and caches no pair beyond the truncation."""
    trunc, n, a_coeffs, b_coeffs = operands
    ctx = ctx_for(sl2_lba(), N=trunc)
    a = SparseTensor(n, trunc, a_coeffs)
    b = SparseTensor(n, trunc, b_coeffs)
    got = ctx.poisson(a, b)
    assert list(got.coeffs.items()) == list(fraction_poisson(ctx, a, b).items())
    # a zero operand returns before the slot count's tables are made
    memo = ctx._packings[n].memo if n in ctx._packings else {}
    for key in memo:
        m1, m2 = decode(ctx, key >> n * ctx._slot_bits, n), decode(ctx, key, n)
        assert monomial_degree(m1) + monomial_degree(m2) - 1 <= trunc


def test_poisson_of_a_zero_operand_touches_no_table():
    """A zero operand on either side gives the context's zero series, in
    the operands' slot count and truncation, and leaves the pair memo and
    the pack tables as they were: the other operand is not packed."""
    ctx = ctx_for(sl2_lba(), N=4)
    f = ctx.series({((0, 1),): F(2), ((1, 2),): F(-1, 3)})
    g = ctx.series({((0, 0),): F(1), ((2,),): F(5)})
    ctx.poisson(f, g)
    packing = ctx._packings[1]
    before = (dict(packing.pack), dict(packing.unpack), dict(packing.memo), dict(packing.intern))
    new = ctx.series({((0, 2, 2),): F(1), ((1, 1),): F(7)})
    for a, b in ((ctx.zero(), new), (new, ctx.zero()), (ctx.zero(), ctx.zero())):
        out = ctx.poisson(a, b)
        assert out.is_zero() and out.slots == 1 and out.trunc == ctx.trunc
        assert out == ctx.zero()
    assert (packing.pack, packing.unpack, packing.memo, packing.intern) == before
    pair = SparseTensor(2, 4, {((0,), (1, 2)): F(1)})
    assert ctx.poisson(pair, ctx.zero(2)) == ctx.zero(2)
    assert set(ctx._packings) == {1}


def test_context_rejects_a_bracket_table_that_is_not_antisymmetric(monkeypatch):
    """One corrupted entry on one side of the bracket table, a row missing
    its mirror, or a bracket of a word with itself, makes the context
    raise as it is built, naming the word pair."""
    build = PairingContext._build_bracket_table
    lba = build_delta_gamma(axb_gamma(), 1)
    ctx = PairingContext(lba, 4)
    width, words = ctx._slot_bits, ctx._code_words
    key = next(iter(ctx._bracket_table))
    u, v = words[key >> width], words[key & ((1 << width) - 1)]
    (w, n), *rest = ctx._bracket_table[key]
    diagonal = (ctx._word_codes[u] << width) | ctx._word_codes[u]

    def corrupted(change):
        def patched(self, dual, straighten, factor):
            L, table = build(self, dual, straighten, factor)
            change(table)
            return L, table

        return patched

    def scale_one(table):
        table[key] = ((w, 2 * n), *rest)

    mutations = [
        (scale_one, (u, v)),
        (lambda table: table.pop((ctx._word_codes[v] << width) | ctx._word_codes[u]), (u, v)),
        (lambda table: table.__setitem__(diagonal, ((w, n),)), (u, u)),
    ]
    for change, (p, q) in mutations:
        monkeypatch.setattr(PairingContext, "_build_bracket_table", corrupted(change))
        with pytest.raises(ValueError, match="not antisymmetric") as err:
            PairingContext(lba, 4)
        assert f"{p}, {q}" in str(err.value) or f"{q}, {p}" in str(err.value)
    monkeypatch.undo()
    assert PairingContext(lba, 4)._bracket_table == ctx._bracket_table


def test_poisson_visits_only_the_pairs_within_the_bound():
    """On a fresh sl2 context at trunc 4, a 2-slot operand pair brackets each
    monomial pair with deg(m1) + deg(m2) - 1 <= 4 once, in a's order and then
    b's, and no other pair: 14 of the 25 pairs offered."""
    ctx = ctx_for(sl2_lba(), N=4)
    monos = [((0,), ()), ((1,), (2,)), ((0, 1), (2,)), ((), (0, 1, 2)), ((1, 1), (0, 2))]
    a = SparseTensor(2, 4, {m: F(i + 1) for i, m in enumerate(monos)})
    b = SparseTensor(2, 4, {m: F(-1, i + 2) for i, m in enumerate(reversed(monos))})
    seen = []
    bracket = ctx._pair_bracket

    def counted(packing, p1, p2, n):
        seen.append((decode(ctx, p1, n), decode(ctx, p2, n)))
        return bracket(packing, p1, p2, n)

    ctx._pair_bracket = counted
    got = ctx.poisson(a, b)
    within = [
        (m1, m2) for m1 in a.coeffs for m2 in b.coeffs
        if monomial_degree(m1) + monomial_degree(m2) - 1 <= 4
    ]
    assert seen == within and len(seen) == 14
    assert list(got.coeffs.items()) == list(fraction_poisson(ctx, a, b).items())


def per_pair_scan(ctx: PairingContext):
    """Reference pair bracket: delta_U of a PBW word by the coderivation
    recursion on demand, then for each pair a scan of every PBW word of
    length at least len(a) + len(b) - 1."""
    dual = ctx.lba.dual()
    straighten = dual.straighten
    memo: dict = {}

    def generator(i):
        return {((a,), (b,)): c for (a, b), c in dual.cobracket_tensor(i).items()}

    def delta_u(word):
        if word in memo:
            return memo[word]
        if len(word) == 1:
            result = generator(word[0])
        else:
            head, tail = word[:-1], (word[-1],)
            result = {}
            for (p, q), c in delta_u(head).items():
                for s, t in ((tail, ()), ((), tail)):
                    for w1, c1 in straighten(p + s).items():
                        for w2, c2 in straighten(q + t).items():
                            _add_into(result, (w1, w2), c * c1 * c2)
            for (s, t), m in cocommutative_splits(head).items():
                for (p, q), c in generator(word[-1]).items():
                    for w1, c1 in straighten(s + p).items():
                        for w2, c2 in straighten(t + q).items():
                            _add_into(result, (w1, w2), F(m) * c * c1 * c2)
        memo[word] = result
        return result

    def pair_bracket(a, b):
        out: dict = {}
        for pi in ctx._pbw:
            if pi and len(pi) >= len(a) + len(b) - 1:
                c = delta_u(pi).get((a, b))
                if c:
                    f = multiset_factor(a) * multiset_factor(b)
                    _add_into(out, pi, c * f / multiset_factor(pi))
        return out

    return pair_bracket


@pytest.mark.parametrize("trunc", [3, 4, 5])
@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("name", ["axb", "sl2-weyl"])
def test_bracket_table_equals_per_pair_scan(name, gamma, trunc):
    """The transposed delta_U table holds every 1-slot pair bracket within
    the truncation, each key and word a distinct packed code: the per-pair
    scan's values times L, the lcm of their denominators, as ints in the
    scan's term order."""
    G = axb_gamma() if name == "axb" else sl2_weyl_gamma()
    ctx = PairingContext(build_delta_gamma(G, gamma), trunc)
    expected = per_pair_scan(ctx)
    brackets, L = one_slot_brackets(ctx), ctx._bracket_lcm
    assert len(brackets) == len(ctx._bracket_table)
    denominators = []
    for a in ctx._pbw:
        for b in ctx._pbw:
            if len(a) + len(b) - 1 <= trunc:
                want = expected(a, b)
                denominators += [c.denominator for c in want.values()]
                got = dict(brackets.get((a, b), ()))
                assert all(type(v) is int for v in got.values())
                assert list(got.items()) == [(w, c * L) for w, c in want.items()], (a, b)
    assert L == lcm(*denominators)
    assert all(len(a) + len(b) - 1 <= trunc for a, b in brackets)


def fraction_coproduct_table(ctx: PairingContext):
    """Reference Delta_gamma table, summed in Fraction: (L, {word: {(b1, b2):
    numerator over L}})."""
    dual = ctx.lba.dual()
    table: dict = {}
    for b1 in ctx._pbw:
        for b2 in ctx._pbw:
            if len(b1) + len(b2) > ctx.trunc:
                continue
            denom = multiset_factor(b1) * multiset_factor(b2)
            for w, c in dual.straighten(b1 + b2).items():
                table.setdefault(w, {})[(b1, b2)] = c * multiset_factor(w) / denom
    L = lcm(*(c.denominator for row in table.values() for c in row.values()))
    return L, {w: {k: int(c * L) for k, c in row.items()} for w, row in table.items()}


def fraction_bracket_table(ctx: PairingContext):
    """Reference delta_U table, each delta summed in Fraction in PBW order and
    transposed: (L, {((a,), (b,)): {(word,): numerator over L}})."""
    dual = ctx.lba.dual()
    straighten = dual.straighten
    deltas: dict = {}
    table: dict = {}
    for word in ctx._pbw[1:]:
        dv = {((a,), (b,)): c for (a, b), c in dual.cobracket_tensor(word[-1]).items()}
        if len(word) == 1:
            delta = dv
        else:
            head, tail = word[:-1], (word[-1],)
            delta = {}
            for (p, q), c in deltas[head].items():
                for s, t in ((tail, ()), ((), tail)):
                    for w1, c1 in straighten(p + s).items():
                        for w2, c2 in straighten(q + t).items():
                            _add_into(delta, (w1, w2), c * c1 * c2)
            for (s, t), m in cocommutative_splits(head).items():
                for (p, q), c in dv.items():
                    for w1, c1 in straighten(s + p).items():
                        for w2, c2 in straighten(t + q).items():
                            _add_into(delta, (w1, w2), m * c * c1 * c2)
        deltas[word] = delta
        for (a, b), c in delta.items():
            if c:
                f = multiset_factor(a) * multiset_factor(b)
                table.setdefault(((a,), (b,)), {})[(word,)] = c * f / multiset_factor(word)
    L = lcm(*(c.denominator for row in table.values() for c in row.values()))
    return L, {key: {m: int(c * L) for m, c in row.items()} for key, row in table.items()}


@pytest.mark.parametrize("name", ["abelian", "axb", "sl2-weyl"])
def test_context_tables_equal_fraction_built_tables(name):
    """Both tables of every distinct context at N=5, built in int, equal the
    Fraction-built ones: denominators, numerators and key order."""

    def ordered(table):
        return [(k, list(row.items())) for k, row in table.items()]

    G = parse_problem(data_path(f"{name}.glb").read_text(encoding="utf-8")).G
    cobrackets = {frozenset(build_delta_gamma(G, g).cobracket.items()): g for g in G.group.elements()}
    for g in cobrackets.values():
        ctx = PairingContext(build_delta_gamma(G, g), 5)
        L, table = fraction_coproduct_table(ctx)
        assert ctx._coproduct_den == L
        assert ordered(ctx._coproduct_table) == ordered(table)
        L, table = fraction_bracket_table(ctx)
        assert ctx._bracket_lcm == L
        memo = {
            ((a,), (b,)): {(w,): c for w, c in row}
            for (a, b), row in one_slot_brackets(ctx).items()
        }
        assert ordered(memo) == ordered(table)
        assert all(type(v) is int for row in memo.values() for v in row.values())


def test_dynkin_star_agrees_on_series():
    rng = random.Random(23)
    ctx = ctx_for(sl2_lba(), N=4)
    monos = [w for w in ctx._pbw if 2 <= len(w) <= 3]
    for _ in range(5):
        f = ctx.series({(m,): F(rng.randint(-2, 2)) for m in rng.sample(monos, 3)})
        g = ctx.series({(m,): F(rng.randint(-2, 2)) for m in rng.sample(monos, 3)})
        assert ctx.bch_star(f, g) == ctx.bch_star_dynkin(f, g)


_star_contexts: dict = {}


def star_context(name, gamma, N):
    key = (name, gamma, N)
    if key not in _star_contexts:
        G = axb_gamma() if name == "axb" else sl2_weyl_gamma()
        _star_contexts[key] = PairingContext(build_delta_gamma(G, gamma), N)
    return _star_contexts[key]


@st.composite
def star_operands(draw):
    """A context of axb or sl2-weyl and two random m^2 series on 1-3 slots."""
    name = draw(st.sampled_from(["axb", "sl2-weyl"]))
    gamma = draw(st.integers(0, 1))
    N = draw(st.integers(3, 5) if name == "axb" else st.integers(3, 4))
    ctx = star_context(name, gamma, N)
    n = draw(st.integers(1, 3))

    def monomial():
        total = draw(st.integers(2, N))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        lengths = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
        return tuple(
            tuple(sorted(draw(st.lists(st.integers(0, ctx.dim - 1), min_size=k, max_size=k))))
            for k in lengths
        )

    def series():
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=4))
        return SparseTensor(n, N, {monomial(): F(p, q) for p, q in terms})

    return ctx, series(), series()


@given(star_operands())
@settings(max_examples=80, deadline=None)
def test_capped_star_products_equal_uncapped(operands):
    """bch_star (Lyndon words up to N - 1) equals the Lyndon kernel run to
    length N and the capped Bernoulli recursion."""
    ctx, f, g = operands
    star = ctx.bch_star(f, g)
    assert star == bch_apply(ctx.poisson, f, g, ctx.trunc)
    assert star == ctx.bch_star_dynkin(f, g)


@st.composite
def bracket_operands(draw):
    """A context of axb or sl2-weyl and two random series on 1-3 slots of
    any degree up to its truncation, half of the monomials with every slot
    nonempty (so that several slots of a pair bracket at once)."""
    name = draw(st.sampled_from(["axb", "sl2-weyl"]))
    ctx = star_context(name, draw(st.integers(0, 1)), draw(st.integers(3, 5)))
    n = draw(st.integers(1, 3))

    def monomial():
        least = draw(st.integers(0, 1))
        degree = draw(st.integers(least * n, ctx.trunc))
        return draw(st.sampled_from(slot_monomials(ctx.dim, n, degree, least)))

    def series():
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=6))
        return SparseTensor(n, ctx.trunc, {monomial(): F(p, q) for p, q in terms})

    return ctx, series(), series()


@given(bracket_operands())
@settings(max_examples=80, deadline=None)
def test_packed_poisson_equals_the_tuple_kernel(operands):
    """At every cut 2..N the packed kernel gives the tuple kernel's sum:
    values, term order and monomials, each of them one object across the
    cuts and the order of the operands."""
    ctx, a, b = operands
    oracle = fraction_poisson(ctx, a, b)
    full = ctx.poisson(a, b)
    one = {m: m for m in full.num}
    one.update((m, m) for m in ctx.poisson(b, a).num if m not in one)
    for T in range(2, ctx.trunc + 1):
        got = ctx.poisson(a, b, T)
        assert list(got.coeffs.items()) == [(m, c) for m, c in oracle.items() if monomial_degree(m) <= T]
        assert all(one[m] is m for m in got.num)


@pytest.mark.parametrize("name", ["axb", "sl2-weyl"])
def test_packing_round_trips_and_brackets_the_pairs_at_the_bound(name):
    """Every monomial of 1-3 slots and degree <= trunc, unit slots included,
    packs to a distinct code that unpacks to it.  A pair of powers of one
    generator each, in one slot, at the bound deg(m1) + deg(m2) = trunc + 1
    (its code sum holds trunc + 1 in one field when the two generators
    agree) is visited and gives the tuple kernel's bracket."""
    G = axb_gamma() if name == "axb" else sl2_weyl_gamma()
    ctx = PairingContext(build_delta_gamma(G, 1), 4)
    N, width = ctx.trunc, ctx._slot_bits
    nonzero = 0
    for n in (1, 2, 3):
        packing = ctx._packing(n)
        codes = set()
        for d in range(N + 1):
            for m in slot_monomials(ctx.dim, n, d, least=0):
                code, degree = ctx._pack(packing, m)
                assert degree == d and decode(ctx, code, n) == m
                assert ctx._unpack(packing, code, n) == (m, d)
                codes.add(code)
        assert len(codes) == sum(len(slot_monomials(ctx.dim, n, d, least=0)) for d in range(N + 1))
        unit = unit_monomial(n)
        for s in range(n):
            for i in range(ctx.dim):
                for j in range(ctx.dim):
                    for k in range(1, N + 1):
                        m1 = unit[:s] + ((i,) * k,) + unit[s + 1 :]
                        m2 = unit[:s] + ((j,) * (N + 1 - k),) + unit[s + 1 :]
                        a, b = SparseTensor(n, N, {m1: F(1)}), SparseTensor(n, N, {m2: F(1)})
                        got = ctx.poisson(a, b)
                        key = (ctx._pack(packing, m1)[0] << n * width) | ctx._pack(packing, m2)[0]
                        assert key in packing.memo
                        assert list(got.coeffs.items()) == list(fraction_poisson(ctx, a, b).items())
                        nonzero += not got.is_zero()
    assert nonzero


@pytest.mark.parametrize("N", [5, 6])
@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("name", ["axb", "sl2-weyl"])
def test_integer_poisson_equals_fraction_sum(name, gamma, N):
    """The integer-numerator kernel returns the Fraction sum, term order
    included, on operands whose denominators are coprime to each other."""
    ctx = star_context(name, gamma, N)
    rng = random.Random(N * 10 + gamma)

    def series(n, denominators):
        coeffs = {}
        for _ in range(6):
            total = rng.randint(1, N)
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            lengths = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
            mono = tuple(tuple(sorted(rng.choices(range(ctx.dim), k=k))) for k in lengths)
            coeffs[mono] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(denominators))
        return SparseTensor(n, N, coeffs)

    for n in (1, 2, 3):
        a, b = series(n, [3, 7, 9]), series(n, [4, 5, 11])
        got = ctx.poisson(a, b)
        assert list(got.coeffs.items()) == list(fraction_poisson(ctx, a, b).items())
    L = ctx._bracket_lcm
    assert L == lcm(*(F(v, L).denominator for row in ctx._bracket_table.values() for _, v in row))
    if N == 6:
        assert L == 720


def test_integer_poisson_readds_a_cancelled_term_at_the_end():
    """{y, x}, {xy, x} and {x^2 y, x} all hold x^3 on axb; the first two
    cancel it, the third brings it back after x^4 and x^5."""
    ctx = star_context("axb", 1, 5)
    a = SparseTensor(1, 5, {((1,),): F(3, 5), ((0, 1),): F(-1, 5), ((0, 0, 1),): F(1, 7)})
    b = SparseTensor(1, 5, {((0,),): F(2, 3)})
    got = ctx.poisson(a, b)
    assert list(got.coeffs.items()) == list(fraction_poisson(ctx, a, b).items())
    assert list(got.coeffs) == [((0,),), ((0, 0),), ((0, 0, 0, 0),), ((0, 0, 0, 0, 0),), ((0, 0, 0),)]
    assert got.coeffs[((0, 0, 0),)] == F(-2, 21)


def test_poisson_holds_one_integer_cache():
    """Every pair-memo entry, 1-slot or 2-slot, is one flat tuple (k1, c1,
    k2, c2, ...) of packed codes and nonzero int numerators: the product
    rule over the per-pair scan's brackets times L, term order included.
    Each code in it is the one object of its slot count's intern table, and
    each output monomial unpacks to one tuple.  The context holds no other
    cache: its dicts are the two tables, the word codes and the per-slot
    count packing tables."""
    ctx = PairingContext(build_delta_gamma(sl2_weyl_gamma(), 1), 4)
    rng = random.Random(5)
    monos = [(w,) for w in ctx._pbw if 2 <= len(w) <= 3]
    f = ctx.series({m: F(rng.randint(1, 3), rng.choice([2, 3, 5])) for m in rng.sample(monos, 4)})
    g = ctx.series({m: F(rng.randint(-3, -1), rng.choice([7, 11])) for m in rng.sample(monos, 4)})
    ctx.bch_star(f, g)
    ctx.poisson(ctx.coproduct(f), ctx.coproduct(g))
    scan = per_pair_scan(ctx)

    def reference(m1, m2):
        out: dict = {}
        merged = tuple(merge_slot(a, b) for a, b in zip(m1, m2))
        for s in range(len(m1)):
            rest = monomial_degree(merged) - len(merged[s])
            for w, c in scan(m1[s], m2[s]).items():
                if rest + len(w) <= ctx.trunc:
                    _add_into(out, merged[:s] + (w,) + merged[s + 1 :], c)
        return out

    L, width = ctx._bracket_lcm, ctx._slot_bits
    assert set(ctx._packings) == {1, 2}
    for n, packing in ctx._packings.items():
        assert packing.memo
        for key, flat in packing.memo.items():
            m1, m2 = decode(ctx, key >> n * width, n), decode(ctx, key, n)
            codes, numerators = flat[::2], flat[1::2]
            assert type(flat) is tuple and all(type(x) is int for x in flat)
            assert all(packing.intern[k] is k for k in codes) and all(numerators)
            terms = [(decode(ctx, k, n), c) for k, c in zip(codes, numerators)]
            assert terms == [(m, c * L) for m, c in reference(m1, m2).items()]
        for code, (mono, degree) in packing.unpack.items():
            assert packing.pack[mono] == (code, degree) and decode(ctx, code, n) == mono
    assert sorted(name for name, value in vars(ctx).items() if isinstance(value, dict)) == [
        "_bracket_table", "_code_words", "_coproduct_table", "_packings", "_word_codes", "_word_degree",
    ]


# -- ad_star ---------------------------------------------------------------------


def test_ad_star_zero_and_abelian():
    ctx = ctx_for(abelian_lba(), N=4)
    x = ctx.series({((0,),): F(1), ((1, 1),): F(3)})
    u = ctx.series({((0, 1),): F(2)})
    assert ctx.ad_star(ctx.zero(), x) == x
    assert ctx.ad_star(u, x) == x  # abelian: zero bracket

    ctx2 = ctx_for(axb_lba(), N=4)
    x2 = ctx2.series({((0,),): F(1)})
    assert ctx2.ad_star(ctx2.zero(), x2) == x2


def test_ad_star_agrees_with_bch_conjugation():
    rng = random.Random(9)
    ctx = ctx_for(axb_lba(), N=5)
    monos = [w for w in ctx._pbw if 2 <= len(w) <= 3]
    for _ in range(6):
        u = ctx.series({(m,): F(rng.randint(-2, 2)) for m in rng.sample(monos, 2)})
        x = ctx.series({(m,): F(rng.randint(-2, 2)) for m in rng.sample(monos, 2)})
        conj = ctx.bch_star(u, ctx.bch_star(x, u.scale(-1)))
        assert ctx.ad_star(u, x) == conj
    # term k has degree >= mindeg(x) + k (a bracket with u in m^2 raises
    # degree), so ad_star brackets at most trunc + 1 - mindeg(x) times
    for ctx in bundled_classical_contexts():
        poisson, calls = ctx.poisson, []
        ctx.poisson = lambda a, b: calls.append(1) or poisson(a, b)
        xs = [ctx.coproduct(SparseTensor.generator(i, ctx.trunc)) for i in range(ctx.dim)]
        xs += [ctx.series({(w,): F(1) for w in sorted_words(ctx.dim, d)}) for d in range(1, ctx.trunc + 1)]
        for x in xs:
            m2 = [m for d in range(2, ctx.trunc + 1) for m in slot_monomials(ctx.dim, x.slots, d)]
            u = ctx.series({m: F(rng.randint(1, 3)) for m in rng.sample(m2, min(3, len(m2)))}, x.slots)
            calls.clear()
            ctx.ad_star(u, x)
            assert len(calls) <= ctx.trunc + 1 - min(map(monomial_degree, x.coeffs))


# -- insertions: a unit slot and Delta at one slot ---------------------------------


def test_insert_identity_placement():
    ctx = ctx_for(axb_lba(), N=4)
    a = ctx.series({(((0,)), ((1,))): F(2)}, slots=2)
    out = tensor_unit(a, 2)
    assert out.coeffs == {((0,), (1,), ()): F(2)}


def test_insert_primitive_spread():
    ctx = ctx_for(abelian_flat_lba(), N=3)
    x = ctx.series({((0,),): F(1)})
    out = ctx.coproduct_slot(x, 0)
    assert out.coeffs == {((0,), ()): F(1), ((), (0,)): F(1)}


def test_insert_degree_11_tensor():
    ctx = ctx_for(abelian_flat_lba(), N=3)
    a = ctx.series({(((0,)), ((1,))): F(1)}, slots=2)
    out = ctx.coproduct_slot(a, 0)
    assert out.coeffs == {
        ((0,), (), (1,)): F(1),
        ((), (0,), (1,)): F(1),
    }


def test_insert_cocommutative_order_independence():
    """The abelian coproduct is unchanged when its two slots are swapped."""
    ctx = ctx_for(abelian_flat_lba(), N=4)
    a = ctx.series({((0, 1),): F(1), ((0, 0),): F(2)})
    d = ctx.coproduct(a)
    assert ctx.series({(r, l): c for (l, r), c in d.coeffs.items()}, slots=2) == d


def test_coproduct_rejects_multi_slot_series():
    ctx = ctx_for(axb_lba(), N=3)
    with pytest.raises(ValueError, match="1-slot"):
        ctx.coproduct(ctx.series({(((0,)), ((1,))): F(1)}, slots=2))


# -- grouplike defect (rigidity mechanism) ----------------------------------------


def grouplike_defect(ctx, w):
    """Delta_gamma(w) - w^1 * w^2: zero iff w = 0 at the truncation."""
    return ctx.coproduct(w) - ctx.bch_star(tensor_unit(w, 1), tensor_unit(w, 0))


def test_grouplike_defect_zero_only_for_zero():
    ctx = ctx_for(axb_lba(), N=4)
    assert grouplike_defect(ctx, ctx.zero()).is_zero()
    rng = random.Random(2)
    monos = [w for w in ctx._pbw if 2 <= len(w) <= 3]
    for _ in range(8):
        w = ctx.series({(m,): F(rng.randint(-2, 2)) for m in rng.sample(monos, 2)})
        if w.is_zero():
            continue
        defect = grouplike_defect(ctx, w)
        assert not defect.is_zero()
        # lowest-degree part of the defect is the reduced coproduct of the
        # lowest part of w (the degree argument behind uniqueness)
        assert min(map(monomial_degree, defect.coeffs)) == min(map(monomial_degree, w.coeffs))


def test_context_keeps_no_dual_after_it_is_built(monkeypatch):
    """The dual Lie bialgebra, with the straighten cache of every word the
    table builds met, is freed once the context is built."""
    duals = []
    real_dual = LieBialgebra.dual

    def recording_dual(self):
        out = real_dual(self)
        duals.append(weakref.ref(out))
        return out

    monkeypatch.setattr(LieBialgebra, "dual", recording_dual)
    ctx = PairingContext(build_delta_gamma(sl2_weyl_gamma(), 1), 4)
    gc.collect()
    assert len(duals) == 1 and duals[0]() is None
    assert ctx.coproduct(SparseTensor.generator(0, 4)).num
