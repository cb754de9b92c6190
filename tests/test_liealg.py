from __future__ import annotations

from fractions import Fraction

import pytest

from gammastack.cli import data_path
from gammastack.liealg import (
    FiniteGroup,
    GammaLieBialgebra,
    LieBialgebra,
    classical_yang_baxter,
    copoisson_envelope,
    validate_gamma_lba,
)
from gammastack.problemfile import parse_problem
from gammastack.quantum import QuantumError, QueContext, linear_leading_inverse
from gammastack.tensors import _add_into

from tools.bundled import QuasitriangularError, from_quasitriangular

from conftest import (
    abelian_gamma,
    abelian_twisted_gamma,
    axb_gamma,
    axb_lba,
    sl2_lba,
    sl2_r,
    sl2_weyl_gamma,
    sl2_weyl_theta,
)

F = Fraction


def test_abelian_valid():
    assert validate_gamma_lba(abelian_gamma()) == []


def test_abelian_twisted_valid():
    assert validate_gamma_lba(abelian_twisted_gamma()) == []


def test_axb_valid(axb):
    assert validate_gamma_lba(axb) == []


def test_axb_wrong_f_coefficient_rejected():
    """f_sigma = -x^y instead of -2 x^y must be rejected.

    Expanding the conditions by brute force shows condition (a) is the one
    that fails (for this theta, condition (b) holds for every scalar
    multiple of x^y since wedge^2(theta_sigma) = -1 on wedge^2(g)).
    """
    G = axb_gamma()
    bad = GammaLieBialgebra(
        G.lba, G.group, G.theta, {0: {}, 1: {(0, 1): F(-1), (1, 0): F(1)}}
    )
    issues = validate_gamma_lba(bad)
    assert issues, "mutated twist accepted"
    assert any(i.condition == "condition-a" for i in issues)
    assert all(i.condition != "condition-b" for i in issues)


def test_axb_nonzero_f_e_rejected_as_condition_b():
    G = axb_gamma()
    f = {0: {(0, 1): F(1), (1, 0): F(-1)}, 1: dict(G.f[1])}
    bad = GammaLieBialgebra(G.lba, G.group, G.theta, f)
    issues = validate_gamma_lba(bad)
    assert any(i.condition == "condition-b" for i in issues)


def test_axb_bad_theta_rejected_as_homomorphism():
    G = axb_gamma()
    theta = {0: G.theta[0], 1: [[F(-1), F(0)], [F(1), F(1)]]}
    bad = GammaLieBialgebra(G.lba, G.group, theta, G.f)
    issues = validate_gamma_lba(bad)
    assert any(i.condition in ("theta-homomorphism", "theta-automorphism") for i in issues)


def _sl2_without_delta_f():
    lba = sl2_lba()
    cobracket = {key: c for key, c in lba.cobracket.items() if key[0] != 2}
    return LieBialgebra(3, lba.labels, lba.bracket, cobracket)


def _axb_theta_s(theta_s):
    G = axb_gamma()
    return GammaLieBialgebra(G.lba, G.group, {0: G.theta[0], 1: theta_s}, G.f)


def _with_f_s(G, f_s):
    return GammaLieBialgebra(G.lba, G.group, G.theta, {0: {}, 1: f_s})


@pytest.mark.parametrize(
    "check, expected",
    [
        # delta(f) = 0 breaks only delta([e,f]) = ad_e delta(f) - ad_f delta(e)
        (lambda: _sl2_without_delta_f().validate(),
         ["cocycle violated at (e,f)", "cocycle violated at (f,e)"]),
        # theta_s = diag(1, -1) squares to 1 but maps [x,y] = x to x, [x,-y] to -x
        (lambda: validate_gamma_lba(_axb_theta_s([[F(1), F(0)], [F(0), F(-1)]])),
         ["theta-automorphism violated at (s,x,y)", "theta-automorphism violated at (s,y,x)",
          "condition-a violated at (s,y)"]),
        # f_s = -x^y in place of -2 x^y
        (lambda: validate_gamma_lba(_with_f_s(axb_gamma(), {(0, 1): F(-1), (1, 0): F(1)})),
         ["condition-a violated at (s,y)"]),
        # theta = id and f_s = x^y: f_e = 0 differs from f_s + f_s
        (lambda: validate_gamma_lba(_with_f_s(abelian_gamma(), {(0, 1): F(1), (1, 0): F(-1)})),
         ["condition-b violated at (s,s)"]),
    ],
    ids=["cocycle", "theta-automorphism", "condition-a", "condition-b"],
)
def test_identity_check_names_the_failing_tuple(check, expected):
    """Each identity check compares both sides exactly: one minimal mutation
    is reported by that check alone (plus what it forces), at its tuples."""
    assert [str(issue) for issue in check()] == expected


def test_condition_b_group_triples(axb):
    """f_{(gh)k} computed two ways agrees exactly on all triples."""
    from gammastack.liealg import wedge2_apply
    from gammastack.tensors import _add_into

    grp = axb.group
    for g in grp.elements():
        for h in grp.elements():
            for k in grp.elements():
                left = dict(axb.f[grp.mul(grp.mul(g, h), k)])
                via = dict(axb.f[g])
                for key, c in wedge2_apply(axb.theta[g], axb.f[grp.mul(h, k)]).items():
                    _add_into(via, key, c)
                assert left == via


def test_theta_inverse_matrices(axb):
    """Inverting theta_g's generator images gives theta_{g^-1}'s; a singular
    linear part is refused."""
    ctx = QueContext(axb, 2, 2)
    for g in axb.group.elements():
        inverse = linear_leading_inverse(ctx, ctx.theta_images(g))
        assert inverse == ctx.theta_images(axb.group.inverse[g])
    with pytest.raises(QuantumError, match="singular"):
        linear_leading_inverse(ctx, [ctx.gen(0), ctx.gen(0)])


def test_sl2_cybe_holds():
    assert classical_yang_baxter(sl2_lba(), sl2_r()) == {}


def test_sl2_quasitriangular_twist_values():
    G = sl2_weyl_gamma()
    # f_w = theta_w^{(x)2}(r) - r = -(e^f): indices e=1, f=2
    assert G.f[1] == {(1, 2): F(-1), (2, 1): F(1)}
    assert G.f[2] == {}
    assert G.f[3] == {(1, 2): F(-1), (2, 1): F(1)}
    assert validate_gamma_lba(G) == []


def test_quasitriangular_zero_r_gives_zero_f():
    group = FiniteGroup.cyclic(4, "w")
    G = from_quasitriangular(sl2_lba(), group, sl2_weyl_theta(), {})
    assert all(not G.f[g] for g in group.elements())


def test_quasitriangular_identity_theta_gives_zero_f():
    group = FiniteGroup.cyclic(2, "s")
    ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    G = from_quasitriangular(sl2_lba(), group, {0: ident, 1: ident}, sl2_r())
    assert all(not G.f[g] for g in group.elements())


def test_quasitriangular_cybe_failure_rejected():
    # r = h (x) e fails CYBE for sl2
    with pytest.raises(QuasitriangularError):
        from_quasitriangular(
            sl2_lba(), FiniteGroup.cyclic(2, "s"), {0: sl2_weyl_theta()[0], 1: sl2_weyl_theta()[0]}, {(0, 1): F(1)}
        )


def test_copoisson_primitive_with_zero_cobracket(axb):
    # delta(x) = 0 -> envelope value 0
    assert copoisson_envelope(axb, (0,), axb.group.identity) == {}


def test_copoisson_identity_label_zero(axb):
    assert copoisson_envelope(axb, (), axb.group.identity) == {}


def test_copoisson_sigma_value(axb):
    # delta_U([sigma]) = -f_sigma ([sigma] (x) [sigma]) = 2(x (x) y - y (x) x)[s,s]
    out = copoisson_envelope(axb, (), 1)
    assert out == {
        (((0,), 1), ((1,), 1)): F(2),
        (((1,), 1), ((0,), 1)): F(-2),
    }


def test_copoisson_basis_element(axb):
    # delta_U([y]) = [delta(y)] = [x^y] with identity labels
    out = copoisson_envelope(axb, (1,), axb.group.identity)
    assert out == {
        (((0,), 0), ((1,), 0)): F(1),
        (((1,), 0), ((0,), 0)): F(-1),
    }


def test_copoisson_coleibniz_on_product(axb):
    """delta_U([y|s]) = delta_U([y]) Delta0([s]) + Delta0([y]) delta_U([s]).

    Hand expansion with delta_U([s]) = 2[x|s](x)[y|s] - 2[y|s](x)[x|s] and
    yx = xy - x in U(ax+b):
      [x|s](x)[y|s]:   1 - 2 = -1      [y|s](x)[x|s]:  -1 + 2 = +1
      [xy|s](x)[y|s]:  +2              [y|s](x)[xy|s]: -2
      [x|s](x)[yy|s]:  +2              [yy|s](x)[x|s]: -2
    """
    out = copoisson_envelope(axb, (1,), 1)
    expected = {
        (((0,), 1), ((1,), 1)): F(-1),
        (((1,), 1), ((0,), 1)): F(1),
        (((0, 1), 1), ((1,), 1)): F(2),
        (((1,), 1), ((0, 1), 1)): F(-2),
        (((0,), 1), ((1, 1), 1)): F(2),
        (((1, 1), 1), ((0,), 1)): F(-2),
    }
    assert out == expected


# -- the co-Leibniz recursion the closed form replaced ----------------------------
#
# delta_U on U(g) x| Gamma extended from generators by delta_U(ab) =
# delta_U(a) Delta0(b) + Delta0(a) delta_U(b), over the labeled product
# [m|g][m'|g'] = [m theta_g(m') | gg'] applied letter by letter.


def _theta_word(G, g, word):
    terms = {(): F(1)}
    m = G.theta[g]
    for letter in word:
        nxt = {}
        for w, c in terms.items():
            for i in range(G.lba.dim):
                if m[i][letter]:
                    for w2, c2 in G.lba.straighten(w + (i,)).items():
                        _add_into(nxt, w2, c * c2 * m[i][letter])
        terms = nxt
    return terms


def _labeled_product(G, a, b):
    (wa, ga), (wb, gb) = a, b
    out = {}
    for w, c in _theta_word(G, ga, wb).items():
        for w2, c2 in G.lba.straighten(wa + w).items():
            _add_into(out, (w2, G.group.mul(ga, gb)), c * c2)
    return out


def _pair_mul(G, s, t, bound):
    out = {}
    for (a1, a2), c in s.items():
        for (b1, b2), c2 in t.items():
            right = _labeled_product(G, a2, b2)
            for m1, d1 in _labeled_product(G, a1, b1).items():
                for m2, d2 in right.items():
                    if len(m1[0]) <= bound and len(m2[0]) <= bound:
                        _add_into(out, (m1, m2), c * c2 * d1 * d2)
    return out


def _coproduct0(G, word, g, bound):
    e = G.group.identity
    terms = {(((), g), ((), g)): F(1)}
    for letter in reversed(word):
        prim = {(((letter,), e), ((), e)): F(1), (((), e), ((letter,), e)): F(1)}
        terms = _pair_mul(G, prim, terms, bound)
    return terms


def coleibniz_envelope(G, word, gamma, bound):
    if not word:
        out = {}
        for (i, j), c in G.f[gamma].items():
            _add_into(out, (((i,), gamma), ((j,), gamma)), -c)
        return out
    e = G.group.identity
    letter, rest = word[0], word[1:]
    delta_a = {(((i,), e), ((j,), e)): c for (i, j), c in G.lba.cobracket_tensor(letter).items()}
    coprod_a = {(((letter,), e), ((), e)): F(1), (((), e), ((letter,), e)): F(1)}
    out = _pair_mul(G, delta_a, _coproduct0(G, rest, gamma, bound), bound)
    for key, c in _pair_mul(G, coprod_a, coleibniz_envelope(G, rest, gamma, bound), bound).items():
        _add_into(out, key, c)
    return out


BUNDLED = ("abelian", "axb", "sl2-weyl", "trivial-que", "abelian-que", "sl2-que")


@pytest.mark.parametrize("name", BUNDLED)
def test_copoisson_envelope_equals_coleibniz_recursion(name):
    """The closed form on [x|gamma] and [1|gamma] is the co-Leibniz recursion
    on every bundled file, every gamma and every word of length <= 1; no cut
    acts at length <= 2, so bounds 3 and 4 agree."""
    G = parse_problem(data_path(f"{name}.glb").read_text(encoding="utf-8")).G
    words = [()] + [(i,) for i in range(G.lba.dim)]
    for gamma in G.group.elements():
        for word in words:
            got = copoisson_envelope(G, word, gamma)
            for bound in (3, 4):
                assert got == coleibniz_envelope(G, word, gamma, bound), (gamma, word, bound)


def test_copoisson_envelope_rejects_longer_words(axb):
    with pytest.raises(ValueError):
        copoisson_envelope(axb, (0, 1), axb.group.identity)
