from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from gammastack import cohomology
from gammastack.cohomology import alt, cohochschild_d, solve_coboundary
from gammastack.formal import PairingContext, build_delta_gamma, tensor2_to_series
from gammastack.liealg import FiniteGroup, LieBialgebra, mat_apply, validate_gamma_lba, wedge2_apply
from gammastack.cli import data_path
from gammastack import stack
from gammastack.problemfile import parse_problem
from gammastack.stack import (
    AlgebraMap,
    StackBuildError,
    _composition_residual,
    _residual_entry,
    build_iso,
    gauge_act,
    iso_residuals,
    lift_twist,
    solve_gauge,
    twist_defect,
    verify_stack,
    verify_twist_equation,
)
from gammastack.tensors import SparseTensor, monomial_degree, slot_monomials, sorted_words, tensor_unit

from tools.bundled import from_quasitriangular
from tools.ranks import cohomology_rank

from conftest import abelian_flat_lba, axb_gamma, axb_lba, randomized_lift, sl2_lba

F = Fraction


def axb_ctx(gamma=0, N=4):
    G = axb_gamma()
    return G, PairingContext(build_delta_gamma(G, gamma), N)


def leading_term(G, a, b, N):
    # Alt(leading) = wedge^2(theta_a)(f_{a^{-1}b}); see verify_stack.leading_for
    gp = G.group.mul(G.group.inverse[a], b)
    return tensor2_to_series(wedge2_apply(G.theta[a], G.f[gp]), N).scale(F(1, 2))


def test_lift_zero_leading():
    _, ctx = axb_ctx()
    z = ctx.zero(2)
    assert lift_twist(ctx, z).is_zero()


def test_lift_abelian_flat_is_leading():
    ctx = PairingContext(abelian_flat_lba(), 5)
    leading = tensor2_to_series({(0, 1): F(3), (1, 0): F(-3)}, 5)
    lift = lift_twist(ctx, leading)
    assert lift == leading
    assert twist_defect(ctx, lift).is_zero()


def test_lift_axb_degree3_defect_alt_vanishes():
    """Condition (c) kills the degree-3 alternating obstruction."""
    G, ctx = axb_ctx(gamma=0, N=3)
    leading = leading_term(G, 0, 1, 3)
    defect = twist_defect(ctx, leading)
    a3 = defect.homogeneous_part(3)
    assert alt(a3).is_zero()


def test_lift_axb_N5_oracle():
    G, ctx = axb_ctx(gamma=0, N=5)
    lift = lift_twist(ctx, leading_term(G, 0, 1, 5))
    assert lift.homogeneous_part(2) == leading_term(G, 0, 1, 5)
    assert verify_twist_equation(ctx, lift).is_zero()
    # the lift genuinely has higher-degree corrections here
    assert lift != leading_term(G, 0, 1, 5)


@pytest.mark.parametrize("name, N", [("axb", 6), ("sl2-weyl", 5)])
def test_dynkin_star_equals_lyndon_star_on_twist_defect_operands(name, N):
    """Both BCH kernels agree on the operands of the twist defect of every
    nonzero lift_twist lift of a bundled problem: the recursion's skipped
    brackets are zero on real operands too."""
    G = parse_problem(data_path(f"{name}.glb").read_text(encoding="utf-8")).G
    checked = 0
    for a in G.group.elements():
        ctx = PairingContext(build_delta_gamma(G, a), N)
        for b in G.group.elements():
            lift = lift_twist(ctx, leading_term(G, a, b, N))
            if lift.is_zero():
                continue
            for left, right in (
                (tensor_unit(lift, 2), ctx.coproduct_slot(lift, 0)),
                (tensor_unit(lift, 0), ctx.coproduct_slot(lift, 1)),
            ):
                assert ctx.bch_star_dynkin(left, right) == ctx.bch_star(left, right)
                checked += 1
    assert checked


def test_gauge_act_trivial_and_abelian():
    G, ctx = axb_ctx(N=4)
    lift = lift_twist(ctx, leading_term(G, 0, 1, 4))
    assert gauge_act(ctx, ctx.zero(1), lift) == lift

    ctx0 = PairingContext(abelian_flat_lba(), 4)
    f = tensor2_to_series({(0, 1): F(1), (1, 0): F(-1)}, 4)
    lam = SparseTensor(1, 4, {((0, 0),): F(2)})
    out = gauge_act(ctx0, lam, f)
    assert out == tensor_unit(lam, 1) + tensor_unit(lam, 0) + f - ctx0.coproduct(lam)


def test_gauge_act_preserves_twist_equation():
    rng = random.Random(17)
    G, ctx = axb_ctx(N=4)
    lift = lift_twist(ctx, leading_term(G, 0, 1, 4))
    monos = [w for w in ctx._pbw if 2 <= len(w) <= 3]

    def antisym_part(s):
        flip = SparseTensor(2, s.trunc, {(m[1], m[0]): c for m, c in s.coeffs.items()})
        return s - flip

    for _ in range(4):
        lam = ctx.series({(m,): F(rng.randint(-2, 2)) for m in rng.sample(monos, 2)})
        acted = gauge_act(ctx, lam, lift)
        assert verify_twist_equation(ctx, acted).is_zero()
        # a degree-2 gauge shifts the symmetric (1,1)-part; the antisymmetric
        # leading class is the invariant
        assert antisym_part(acted.homogeneous_part(2)) == antisym_part(lift.homogeneous_part(2))


def test_lift_uniqueness_up_to_gauge_randomized():
    """Two randomized lift runs are connected by a solved gauge element."""
    G, ctx = axb_ctx(N=4)
    leading = leading_term(G, 0, 1, 4)
    for seed in range(5):
        f1 = randomized_lift(ctx, leading, seed)
        f2 = randomized_lift(ctx, leading, seed + 100)
        assert f1 != f2
        lam = solve_gauge(ctx, f1, f2)
        assert gauge_act(ctx, lam, f1) == f2
        assert all(monomial_degree(m) >= 2 for m in lam.coeffs)


def test_build_iso_identity_when_trivial():
    ctx = PairingContext(abelian_flat_lba(), 4)
    j = build_iso(ctx, ctx, ctx.zero(2))
    for i in range(2):
        assert j.images[i] == SparseTensor.generator(i, 4)


def test_build_iso_abelian_flat_oracle():
    """Abelian case: Poisson condition vacuous, oracle re-expansion."""
    ctx = PairingContext(abelian_flat_lba(), 4)
    f = tensor2_to_series({(0, 1): F(2), (1, 0): F(-2)}, 4)
    j = build_iso(ctx, ctx, f)
    cop_res, poi_res = iso_residuals(ctx, ctx, f, j)
    assert all(r.is_zero() for r in cop_res)
    assert all(r.is_zero() for r in poi_res)


def test_build_iso_axb_nonzero_correction():
    G = axb_gamma()
    N = 4
    ctx_e = PairingContext(build_delta_gamma(G, 0), N)
    ctx_s = PairingContext(build_delta_gamma(G, 1), N)
    lift = lift_twist(ctx_e, leading_term(G, 0, 1, N))
    j = build_iso(ctx_e, ctx_s, lift)
    cop_res, poi_res = iso_residuals(ctx_e, ctx_s, lift, j)
    assert all(r.is_zero() for r in cop_res)
    assert all(r.is_zero() for r in poi_res)
    # nonzero higher correction on at least one generator
    assert any(
        j.images[i] != SparseTensor.generator(i, N) for i in range(2)
    )
    # linear part is the identity, constant term zero
    for i in range(2):
        assert j.images[i].homogeneous_part(1) == SparseTensor.generator(i, N)
        assert j.images[i].coeffs.get(((),), 0) == 0


# the reasons, as _clear_by_degree words solve_coboundary's errors
REASONS = {
    "cocycle": "is not a reduced cocycle: alpha is not a cocycle",
    "alternating": "is not a coboundary: the twisted cobracket differs from the target's",
}


@pytest.mark.parametrize(
    "problem, b, mono, deg, label, reason",
    [
        ("axb", 1, ((0,), (1,)), 2, "y", "alternating"),
        ("axb", 1, ((0,), (0,)), 3, "y", "cocycle"),
        ("axb", 1, ((0,), (0, 1)), 3, "x", "cocycle"),
        ("axb", 1, ((1, 1), (0,)), 3, "x", "cocycle"),
        ("axb", 1, ((1,), (1, 1)), 3, "x", "cocycle"),
        ("sl2-weyl", 1, ((1,), (1,)), 3, "h", "cocycle"),
        ("sl2-weyl", 2, ((1,), (1,)), 3, "h", "cocycle"),
        ("sl2-weyl", 1, ((0,), (1,)), 2, "h", "alternating"),
        ("sl2-weyl", 2, ((0,), (0, 0)), 3, "e", "cocycle"),
    ],
)
def test_build_iso_failure_names_the_generator_and_reason(problem, b, mono, deg, label, reason):
    """A lift at N=4 with one coefficient raised by 1 has no isomorphism:
    the message names the generator whose coproduct residual
    solve_coboundary rejects, the degree, and the reason.  At degree 2 a
    residual that is a cocycle may still alternate to nonzero."""
    G = bundled(f"{problem}.glb")
    N = 4
    ctx_e = PairingContext(build_delta_gamma(G, 0), N)
    ctx_b = PairingContext(build_delta_gamma(G, b), N)
    bad = lift_twist(ctx_e, leading_term(G, 0, b, N)) + SparseTensor(2, N, {mono: F(1)})
    with pytest.raises(StackBuildError) as exc:
        build_iso(ctx_e, ctx_b, bad)
    assert str(exc.value) == f"coproduct residual of {label} at degree {deg} {REASONS[reason]}"


def residual_vector(cop_res, poi_res, dim, deg):
    """Degree-deg coefficients of the iso_residuals output: coproduct blocks
    first, one per generator over the 2-slot monomials, then Poisson
    blocks, one per pair i < k over the words."""
    vec = []
    monos = slot_monomials(dim, 2, deg, least=0)
    for r in cop_res:
        h = r.homogeneous_part(deg).coeffs
        vec.extend(h.get(mono, 0) for mono in monos)
    for r in poi_res:
        h = r.homogeneous_part(deg).coeffs
        vec.extend(h.get((mono,), 0) for mono in sorted_words(dim, deg))
    return vec


def finite_difference_system(ctx_src, ctx_dst, ftilde, images, deg):
    """Oracle for the degree-deg linear part of build_iso's residual: add one
    unknown monomial to one image and re-evaluate the full residual.  The
    residual vector (`residual_vector`) and the column of each unknown
    (l, m), in the order of l, then of m."""
    N, dim = ctx_src.trunc, ctx_src.dim

    def vector(imgs):
        cop_res, poi_res = iso_residuals(ctx_src, ctx_dst, ftilde, AlgebraMap(imgs, N))
        return residual_vector(cop_res, poi_res, dim, deg)

    base = vector(images)
    columns = []
    for l in range(dim):
        for m in sorted_words(dim, deg):
            pert = list(images)
            pert[l] = pert[l] + SparseTensor(1, N, {(m,): F(1)})
            columns.append([p - b for p, b in zip(vector(pert), base)])
    return base, columns


# the finest grading by Z^r of each bundled problem under which the
# bracket, the cobracket and every f_gamma are homogeneous, f_gamma of
# weight 0: each generator's weight.  h, e, f weigh 0, -1, 1; delta(x) =
# x^y or [x, y] = x forces wt(y) = 0, and a nonzero f_s = c x^y then
# wt(x) = 0 too (axb, abelian-que).
TORUS_WEIGHTS = {
    "abelian": ((1,), (0,)),
    "axb": ((), ()),
    "sl2-weyl": ((0,), (-1,), (1,)),
    "trivial-que": ((1,), (0,)),
    "abelian-que": ((), ()),
    "sl2-que": ((0,), (-1,), (1,)),
}


def word_weight(weights, word):
    """The weight of a word."""
    return tuple(sum(weights[i][t] for i in word) for t in range(len(weights[0])))


@pytest.mark.parametrize(
    "problem, N, pairs",
    [("axb", 4, [(0, 1), (1, 0)]), ("sl2-weyl", 3, [(0, 1), (1, 2)])],
)
def test_iso_linear_columns_equal_finite_differences(problem, N, pairs):
    """At every degree, at the images build_iso holds before solving it:
    the coproduct column of the unknown (l, m), found by finite
    differences, is -d(m) in the block of e_l and 0 in every other
    coproduct block, and d is injective on the 1-cochains of that degree.
    So each generator's coproduct part alone fixes its unknowns, which is
    what build_iso solves with solve_coboundary."""
    G = parse_problem(data_path(f"{problem}.glb").read_text(encoding="utf-8")).G
    ctxs = {g: PairingContext(build_delta_gamma(G, g), N) for g in G.group.elements()}
    dim = G.lba.dim
    assert all(cohomology_rank(dim, 1, deg) == 0 for deg in range(2, N + 1))
    nontrivial = 0
    for a, b in pairs:
        ftilde = lift_twist(ctxs[a], leading_term(G, a, b, N))
        j = build_iso(ctxs[a], ctxs[b], ftilde)
        for deg in range(2, N + 1):
            # solving degree deg only adds terms of degree deg
            images = [
                SparseTensor(1, N, {m: c for m, c in img.coeffs.items() if monomial_degree(m) < deg})
                for img in j.images
            ]
            base, columns = finite_difference_system(ctxs[a], ctxs[b], ftilde, images, deg)
            monos = slot_monomials(dim, 2, deg, least=0)
            unknowns = [(l, m) for l in range(dim) for m in sorted_words(dim, deg)]
            for column, (l, m) in zip(columns, unknowns, strict=True):
                d_m = cohochschild_d(SparseTensor(1, N, {(m,): F(1)})).coeffs
                assert d_m.keys() <= set(monos)
                expected = [-d_m.get(mono, 0) if k == l else 0 for k in range(dim) for mono in monos]
                assert column[: len(expected)] == expected, (a, b, deg, l, m)
            nontrivial += any(base)
    # the pairs exercise the solve, not only the zero-residual shortcut
    assert nontrivial >= len(pairs)


@cache
def built_iso(problem, N, a, b):
    """The contexts, the lift and the iso of a pair of a bundled problem."""
    G = bundled(f"{problem}.glb")
    ctx_a, ctx_b = (PairingContext(build_delta_gamma(G, g), N) for g in (a, b))
    lift = lift_twist(ctx_a, leading_term(G, a, b, N))
    return ctx_a, ctx_b, lift, build_iso(ctx_a, ctx_b, lift)


@pytest.mark.parametrize("problem, N, a, b", [("sl2-weyl", 4, 0, 1), ("axb", 4, 0, 1)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_iso_degree_solve_returns_the_subtracted_part(problem, N, a, b, data):
    """A built iso less a degree-d part p (small rationals on a few words of
    each image) has coproduct residuals that vanish below degree d and are
    d(p_l) at degree d, and solve_coboundary of each returns p_l exactly:
    the degree-d solve of build_iso recovers what was taken away."""
    ctx_a, ctx_b, lift, j = built_iso(problem, N, a, b)
    dim = ctx_a.dim
    deg = data.draw(st.integers(2, N), label="deg")
    values = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(3)])
    words = st.dictionaries(st.sampled_from(sorted_words(dim, deg)), values, max_size=3)
    p = [
        SparseTensor(1, N, {(w,): c for w, c in data.draw(words, label=f"p_{l}").items()})
        for l in range(dim)
    ]
    images = [img - p_l for img, p_l in zip(j.images, p)]
    cop_res, _ = iso_residuals(ctx_a, ctx_b, lift, AlgebraMap(images, N))
    for r, p_l in zip(cop_res, p):
        assert all(monomial_degree(m) >= deg for m in r.num)
        alpha = r.homogeneous_part(deg)
        assert alpha == cohochschild_d(p_l)
        assert solve_coboundary(alpha) == p_l


def test_build_iso_evaluates_no_intertwining_residual(monkeypatch):
    """build_iso solves the coproduct parts alone: with iso_residuals
    refusing to run it returns the same images."""
    ctx_a, ctx_b, lift, j = built_iso("sl2-weyl", 4, 0, 1)

    def refuse(*args):
        raise AssertionError("build_iso evaluated iso_residuals")

    monkeypatch.setattr(stack, "iso_residuals", refuse)
    assert build_iso(ctx_a, ctx_b, lift).images == j.images


def test_degree_one_poisson_mismatch_shows_in_iso_residuals():
    """Two contexts with the same (zero) cobracket and brackets 0 and
    [x, y] = x: the zero lift's coproduct residuals vanish, so build_iso
    returns the identity, and its Poisson residual is -x at degree 1,
    which iso_residuals, the certificate's check, reports."""
    N = 3
    ctx_src = PairingContext(abelian_flat_lba(), N)
    ctx_dst = PairingContext(LieBialgebra(2, ["x", "y"], {(0, 1, 0): F(1), (1, 0, 0): F(-1)}, {}), N)
    lift = ctx_src.zero(2)
    j = build_iso(ctx_src, ctx_dst, lift)
    assert j.images == [SparseTensor.generator(i, N) for i in range(2)]
    cop_res, poi_res = iso_residuals(ctx_src, ctx_dst, lift, j)
    assert all(r.is_zero() for r in cop_res)
    assert poi_res == [SparseTensor.generator(0, N).scale(-1)]


@pytest.mark.parametrize("bad", [0, 1])
def test_clear_by_degree_names_the_part_that_fails(bad):
    """With two parts, the error names the part whose solve fails; with
    both solvable, correct gets one beta per part, 0 for a zero part."""
    N = 3
    solvable = cohochschild_d(SparseTensor(1, N, {((0, 1),): F(1)}))
    wedge = SparseTensor(2, N, {((0,), (1,)): F(1), ((1,), (0,)): F(-1)})
    names = ["first part", "second part"]
    parts = [solvable, solvable]
    parts[bad] = wedge
    with pytest.raises(StackBuildError) as exc:
        stack._clear_by_degree(None, lambda x, cut: parts, lambda x, betas: x, 2, N, names, "why")
    assert str(exc.value) == f"{names[bad]} at degree 2 is not a coboundary: why"

    targets = [SparseTensor.zero(2, N)] * 2
    targets[1 - bad] = solvable
    seen = []

    def residual(x, cut):
        return [t - cohochschild_d(x_l) for t, x_l in zip(targets, x)]

    def correct(x, betas):
        seen.append(betas)
        return [x_l + beta for x_l, beta in zip(x, betas)]

    x = stack._clear_by_degree([SparseTensor.zero(1, N)] * 2, residual, correct, 2, N, names, "")
    assert [cohochschild_d(x_l) for x_l in x] == targets
    assert len(seen) == 1 and seen[0][bad].is_zero() and not seen[0][1 - bad].is_zero()


def test_algebra_map_inverse_roundtrip():
    G = axb_gamma()
    N = 4
    ctx_e = PairingContext(build_delta_gamma(G, 0), N)
    ctx_s = PairingContext(build_delta_gamma(G, 1), N)
    lift = lift_twist(ctx_e, leading_term(G, 0, 1, N))
    j = build_iso(ctx_e, ctx_s, lift)
    jinv = j.inverse()
    for i in range(2):
        gen = SparseTensor.generator(i, N)
        assert jinv.apply(j.apply(gen)) == gen
        assert j.apply(jinv.apply(gen)) == gen


def test_build_u_identity_triples():
    G = axb_gamma()
    cert = verify_stack(G, 3)
    e = G.group.identity
    for g in G.group.elements():
        assert cert.gauges[(e, e, g)].is_zero()
        assert cert.gauges[(e, g, g)].is_zero()


def test_verify_stack_abelian_trivial():
    from conftest import abelian_gamma

    cert = verify_stack(abelian_gamma(), 4)
    assert cert.ok
    assert all(f.is_zero() for f in cert.lifts.values())
    assert all(s.is_zero() for s in cert.gauges.values())


def test_verify_stack_axb():
    cert = verify_stack(axb_gamma(), 4)
    assert cert.ok
    # nontrivial data appears
    assert any(not f.is_zero() for f in cert.lifts.values())


def test_certificate_json_deterministic():
    G = axb_gamma()
    c1 = verify_stack(G, 3).to_json(G.lba.labels)
    c2 = verify_stack(G, 3).to_json(G.lba.labels)
    assert c1 == c2


def test_build_u_direct_and_error_paths():
    from gammastack.stack import build_u, StackBuildError
    from gammastack.formal import PairingContext, build_delta_gamma

    G = axb_gamma()
    N = 4
    ctx_e = PairingContext(build_delta_gamma(G, 0), N)
    ctx_s = PairingContext(build_delta_gamma(G, 1), N)
    lift_es = lift_twist(ctx_e, leading_term(G, 0, 1, N))
    lift_se = lift_twist(ctx_s, leading_term(G, 1, 0, N))
    lift_ee = lift_twist(ctx_e, leading_term(G, 0, 0, N))
    j_es = build_iso(ctx_e, ctx_s, lift_es)
    from gammastack.stack import AlgebraMap

    u = build_u(ctx_e, AlgebraMap(j_es.images, N).inverse(), lift_es, lift_se, lift_ee)
    assert all(monomial_degree(m) >= 2 for m in u.coeffs)
    # the gauge equation holds exactly
    pulled = AlgebraMap(j_es.images, N).inverse().apply(lift_se)
    composed = ctx_e.bch_star(pulled, lift_es)
    assert gauge_act(ctx_e, u, composed) == lift_ee
    # leading-term mismatch is rejected as a composition-rule violation
    with pytest.raises(StackBuildError, match="composition rule"):
        build_u(ctx_e, AlgebraMap(j_es.images, N).inverse(), lift_es, lift_se, lift_es)


@pytest.mark.parametrize("mono", [((0,), (0, 1)), ((1, 1), (0,))])
def test_build_u_reports_corrupted_composition(mono):
    """build_u checks the composed twist only when the build fails; a lift_bc
    with one corrupted degree-3 coefficient still reports the twist
    equation, and a leading-term mismatch still reports its own message."""
    from gammastack.stack import build_u

    G = axb_gamma()
    N = 4
    ctx_e = PairingContext(build_delta_gamma(G, 0), N)
    ctx_s = PairingContext(build_delta_gamma(G, 1), N)
    lift_es = lift_twist(ctx_e, leading_term(G, 0, 1, N))
    lift_se = lift_twist(ctx_s, leading_term(G, 1, 0, N))
    lift_ee = lift_twist(ctx_e, leading_term(G, 0, 0, N))
    j_inv = build_iso(ctx_e, ctx_s, lift_es).inverse()

    bad_bc = lift_se + SparseTensor(2, N, {mono: F(1)})
    composed = ctx_e.bch_star(j_inv.apply(bad_bc), lift_es)
    assert not twist_defect(ctx_e, composed).is_zero()
    with pytest.raises(StackBuildError, match="composed element fails the twist equation"):
        build_u(ctx_e, j_inv, lift_es, bad_bc, lift_ee)

    bad_ac = lift_ee + SparseTensor(2, N, {((0,), (1,)): F(1), ((1,), (0,)): F(-1)})
    with pytest.raises(StackBuildError, match="composition rule"):
        build_u(ctx_e, j_inv, lift_es, lift_se, bad_ac)


def test_lift_obstruction_on_invalid_twist_tensor():
    """A leading term violating the cyclic compatibility condition trips the
    degree-3 alternating obstruction with a condition-(c) diagnosis."""
    from conftest import sl2_lba
    from gammastack.cohomology import alt
    from gammastack.stack import StackBuildError, twist_defect

    ctx = PairingContext(sl2_lba(), 3)
    leading = tensor2_to_series({(1, 2): F(1, 2), (2, 1): F(-1, 2)}, 3)  # (e^f)/2
    d3 = twist_defect(ctx, leading).homogeneous_part(3)
    assert not alt(d3).is_zero()
    with pytest.raises(StackBuildError, match="cyclic twist-compatibility"):
        lift_twist(ctx, leading)


@pytest.mark.parametrize("mono", [((0,), (0, 1)), ((1, 1), (0,))])
def test_solve_gauge_rejects_non_twist_source(mono):
    """A source that fails the twist equation leaves a gauge residual that is
    not a cocycle; solve_gauge reports it as a build failure."""
    G = axb_gamma()
    N = 4
    ctx_e = PairingContext(build_delta_gamma(G, 0), N)
    ctx_s = PairingContext(build_delta_gamma(G, 1), N)
    lift_es = lift_twist(ctx_e, leading_term(G, 0, 1, N))
    lift_se = lift_twist(ctx_s, leading_term(G, 1, 0, N))
    lift_ee = lift_twist(ctx_e, leading_term(G, 0, 0, N))
    j_inv = build_iso(ctx_e, ctx_s, lift_es).inverse()
    bad_bc = lift_se + SparseTensor(2, N, {mono: F(1)})
    composed = ctx_e.bch_star(j_inv.apply(bad_bc), lift_es)
    with pytest.raises(StackBuildError, match="degree"):
        solve_gauge(ctx_e, composed, lift_ee)


def test_lift_and_gauge_report_a_wrong_coboundary(monkeypatch):
    """Only the + correction can clear a degree; a coboundary solver that
    returns -beta is a fault that both solvers report with its degree."""
    import gammastack.stack as stack

    G, ctx = axb_ctx(0, 4)
    leading = leading_term(G, 0, 1, 4)
    f = lift_twist(ctx, leading)
    lam = ctx.series({((0, 1),): F(1)})
    target = gauge_act(ctx, lam, f)
    assert solve_gauge(ctx, f, target) == lam
    real = stack.solve_coboundary

    def negated(alpha):
        return real(alpha).scale(-1)

    monkeypatch.setattr(stack, "solve_coboundary", negated)
    with pytest.raises(StackBuildError, match="degree-3"):
        lift_twist(ctx, leading)
    with pytest.raises(StackBuildError, match="degree 2"):
        solve_gauge(ctx, f, target)


def test_lift_evaluates_the_defect_at_full_truncation_once(monkeypatch):
    """After the correction at the last degree N, the lift checks the exact
    identity d(beta) = alpha instead of evaluating the twist defect at cut
    N a second time.  On axb at N=6 every nonzero lift corrects degree N
    and evaluates its defect at the cuts 3, 4, 5, 6, so at cut N once; the
    verifier's kernel finds the lift a twist."""
    import gammastack.stack as stack

    N = 6
    G = axb_gamma()
    cuts, degrees = [], []
    real_defect, real_solve = stack.twist_defect, stack.solve_coboundary

    def defect(ctx, f, star=None, cut=None):
        cuts.append(cut)
        return real_defect(ctx, f, star, cut)

    def solve(alpha):
        degrees.append(monomial_degree(next(iter(alpha.num))))
        return real_solve(alpha)

    monkeypatch.setattr(stack, "twist_defect", defect)
    monkeypatch.setattr(stack, "solve_coboundary", solve)
    lifts = 0
    for a in G.group.elements():
        ctx = PairingContext(build_delta_gamma(G, a), N)
        for b in G.group.elements():
            leading = leading_term(G, a, b, N)
            if leading.is_zero():
                continue
            cuts.clear()
            degrees.clear()
            lift = lift_twist(ctx, leading)
            assert degrees[-1] == N
            assert cuts == [3, 4, 5, 6]
            assert stack.verify_twist_equation(ctx, lift).is_zero()
            lifts += 1
    assert lifts == 2


@pytest.mark.parametrize(
    "defect, message",
    [
        ({((0, 0), (0,), (0,)): F(1)}, "degree 4 is not a reduced cocycle: alpha is not a cocycle"),
        ({((), (0,), (0, 1)): F(1)}, "degree 3 is not a reduced cocycle: alpha is not in the reduced"),
    ],
)
def test_lift_reports_a_defect_that_is_not_a_reduced_cocycle(monkeypatch, defect, message):
    """A defect outside the reduced cocycles is a build failure naming its
    degree, not a bare ValueError from the coboundary solver."""
    import gammastack.stack as stack
    from gammastack.cohomology import cohochschild_d

    G, ctx = axb_ctx(0, 4)
    bad = SparseTensor(3, 4, defect)
    assert not bad.is_reduced() or not cohochschild_d(bad).is_zero()
    monkeypatch.setattr(stack, "twist_defect", lambda ctx, f, star=None, cut=None: bad)
    with pytest.raises(StackBuildError, match=message):
        lift_twist(ctx, leading_term(G, 0, 1, 4))


def test_lift_and_gauge_reject_a_residual_below_the_first_degree(monkeypatch):
    """The degree solver checks once, before its loop, that the residual has
    no term below its first degree: 3 for the twist defect, 2 for the gauge
    residual."""
    import gammastack.stack as stack

    G, ctx = axb_ctx(0, 4)
    leading = leading_term(G, 0, 1, 4)
    f = lift_twist(ctx, leading)
    low_target = f + SparseTensor(2, 4, {((0,), ()): F(1)})
    with pytest.raises(StackBuildError, match="gauge residual has a term below degree 2"):
        solve_gauge(ctx, f, low_target)
    low_defect = SparseTensor(3, 4, {((0,), (1,), ()): F(1)})
    monkeypatch.setattr(stack, "twist_defect", lambda ctx, f, star=None, cut=None: low_defect)
    with pytest.raises(StackBuildError, match="twist defect has a term below degree 3"):
        lift_twist(ctx, leading)


def test_residual_entry_reads_zero_only_when_every_part_vanishes():
    """Per-generator parts that cancel in the sum still fail the entry: with
    j_ab = j_bc = id and u = 0, j_ac = (x + x y, y - x y) has composition
    parts x y and -x y, whose sum is zero."""
    G, ctx = axb_ctx(0, 4)
    N, labels = 4, G.lba.labels
    gens = [SparseTensor.generator(i, N) for i in range(2)]
    xy = ctx.series({((0, 1),): F(1)})
    identity = AlgebraMap(gens, N)
    j_ac = AlgebraMap([gens[0] + xy, gens[1] - xy], N)
    parts = _composition_residual(ctx, ctx.zero(1), identity, identity, j_ac)
    assert parts == [xy, xy.scale(-1)]
    entry = _residual_entry("iso-composition", ("e", "e", "e"), parts, N, labels)
    assert not entry.ok and entry.residual == xy.format(labels) == "1 x y"
    # a nonzero sum is shown as the sum, as before
    summed = _residual_entry("iso-composition", ("e", "e", "e"), [xy, xy, ctx.zero(1)], N, labels)
    assert summed.residual == xy.scale(2).format(labels)
    assert _residual_entry("gauge-cocycle", ("e",) * 4, [ctx.zero(1)] * 2, N, labels).ok
    assert _residual_entry("iso-poisson-intertwining", ("e", "e"), [], N, labels).ok


# -- tuples with equal inputs ---------------------------------------------------


def bundled(name):
    return parse_problem(data_path(name).read_text(encoding="utf-8")).G


def trivially_acting(G):
    """The elements k with theta_k = id and f_k = 0."""
    dim = G.lba.dim
    ident = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    return [k for k in G.group.elements() if G.theta[k] == ident and not G.f[k]]


@pytest.mark.parametrize(
    "problem, N, job, calls",
    [
        ("sl2-weyl.glb", 4, "stack-sl2-weyl-N4", (4, 4, 8, 4)),
        ("axb.glb", 6, "stack-axb-N6", (4, 4, 8, 4)),
    ],
)
def test_verify_stack_evaluates_each_distinct_input_once(monkeypatch, problem, N, job, calls):
    """sl2-weyl's Z/4 acts through Z/2, so pairs (a, b) and (a w2, b w2)
    share their inputs: 4 of 16 lifts and isos and 8 of 64 gauges are
    distinct.  axb's Z/2 acts faithfully and nothing merges.  Either way the
    certificate keeps the bytes bench/reference.json records."""
    import hashlib
    import json
    from pathlib import Path

    import gammastack.stack as stack

    names = ("lift_twist", "build_iso", "build_u", "verify_twist_equation")
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(stack, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(stack, name, counted)
    G = bundled(problem)
    out = stack.verify_stack(G, N).to_json(G.lba.labels)
    assert tuple(counts[n] for n in names) == calls
    reference = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    digest = json.loads(reference.read_text(encoding="utf-8"))[job]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("problem, N", [("abelian.glb", 4), ("axb.glb", 4), ("sl2-weyl.glb", 3)])
def test_trivially_acting_elements_repeat_the_stack_data(problem, N):
    """Cross-layer (no shared evaluation): for k with theta_k = id and
    f_k = 0, delta_{ak} = delta_a, and the lifts, isos and gauges built
    directly at (ak, bk[, ck]), each pair in fresh contexts of its own,
    equal those at (a, b[, c]) and the certificate's entries there."""
    from gammastack.stack import build_u

    G = bundled(problem)
    grp = G.group
    kernel = trivially_acting(G)
    assert grp.identity in kernel
    deltas = {g: build_delta_gamma(G, g) for g in grp.elements()}
    for a in grp.elements():
        for k in kernel:
            assert deltas[grp.mul(a, k)].cobracket == deltas[a].cobracket

    def direct(a, b):
        ctx_a, ctx_b = PairingContext(deltas[a], N), PairingContext(deltas[b], N)
        lift = lift_twist(ctx_a, leading_term(G, a, b, N))
        return ctx_a, lift, build_iso(ctx_a, ctx_b, lift)

    built = {(a, b): direct(a, b) for a in grp.elements() for b in grp.elements()}
    cert = verify_stack(G, N)
    shifted = 0
    for (a, b), (_, lift, iso) in built.items():
        assert cert.lifts[(a, b)] == lift
        assert cert.isos[(a, b)].images == iso.images
        for k in kernel:
            ak, bk = grp.mul(a, k), grp.mul(b, k)
            assert cert.lifts[(ak, bk)] == cert.lifts[(a, b)]
            assert cert.isos[(ak, bk)].images == cert.isos[(a, b)].images
            if k == grp.identity:
                continue
            shifted += 1
            ctx, lift_k, iso_k = built[(ak, bk)]
            assert lift_k == lift and iso_k.images == iso.images
            for c in grp.elements():
                ck = grp.mul(c, k)
                u = build_u(ctx, iso_k.inverse(), lift_k, built[(bk, ck)][1], built[(ak, ck)][1])
                assert u == cert.gauges[(a, b, c)] == cert.gauges[(ak, bk, ck)]
    assert shifted == (len(kernel) - 1) * len(grp.elements()) ** 2


def test_build_failure_names_the_first_triple_sharing_the_input(monkeypatch):
    """A gauge build that fails on an input several triples share names the
    first of them in loop order, as a loop over every triple would."""
    import gammastack.stack as stack

    G = bundled("sl2-weyl.glb")
    N = 3
    grp = G.group
    cert = verify_stack(G, N)
    deltas = {g: frozenset(build_delta_gamma(G, g).cobracket.items()) for g in grp.elements()}

    def inputs(a, b, c):
        return (
            deltas[a],
            tuple(cert.isos[(a, b)].inverse().images),
            cert.lifts[(a, b)],
            cert.lifts[(b, c)],
            cert.lifts[(a, c)],
        )

    triples = [(a, b, c) for a in grp.elements() for b in grp.elements() for c in grp.elements()]
    poisoned = triples[-1]
    target = inputs(*poisoned)
    sharing = [t for t in triples if inputs(*t) == target]
    assert len(sharing) >= 2 and sharing[0] != poisoned
    real = stack.build_u

    def failing(ctx, j_ab_inverse, lift_ab, lift_bc, lift_ac):
        key = (frozenset(ctx.lba.cobracket.items()), tuple(j_ab_inverse.images), lift_ab, lift_bc, lift_ac)
        if key == target:
            raise StackBuildError("forced failure")
        return real(ctx, j_ab_inverse, lift_ab, lift_bc, lift_ac)

    monkeypatch.setattr(stack, "build_u", failing)
    with pytest.raises(StackBuildError) as info:
        stack.verify_stack(G, N)
    where = ", ".join(grp.labels[x] for x in sharing[0])
    assert str(info.value) == f"forced failure (at triple ({where}))"


def test_iso_build_failure_names_its_pair_by_labels(monkeypatch):
    """A build_iso failure names the first pair whose iso fails, by the
    group labels of its elements."""
    real = stack.build_iso
    calls = []

    def failing(ctx_src, ctx_dst, ftilde):
        # the second call builds the iso of the pair (e, w)
        calls.append(ftilde)
        if len(calls) == 2:
            raise StackBuildError("forced failure")
        return real(ctx_src, ctx_dst, ftilde)

    monkeypatch.setattr(stack, "build_iso", failing)
    with pytest.raises(StackBuildError) as info:
        verify_stack(bundled("sl2-weyl.glb"), 3)
    assert str(info.value) == "forced failure (at pair (e, w))"


@pytest.mark.parametrize(
    "problem, N", [("abelian.glb", 3), ("axb.glb", 3), ("axb.glb", 4), ("sl2-weyl.glb", 3)]
)
def test_truncation_restriction(problem, N):
    """The truncation tower: the stack data built at N + 1 and cut to degree
    N is the data built at N.  Lifts, iso generator images and gauges each
    solve their degree-d part from parts of degree <= d only.  Every abelian
    lift is 0, so there the cut removes nothing."""
    G = bundled(problem)
    low, high = verify_stack(G, N), verify_stack(G, N + 1)

    def cut(s):
        return SparseTensor(s.slots, N, s.coeffs)

    assert low.ok and high.ok
    grows = any(monomial_degree(m) > N for f in high.lifts.values() for m in f.coeffs)
    assert grows == (problem != "abelian.glb")
    assert {ab: cut(f) for ab, f in high.lifts.items()} == low.lifts
    assert {ab: [cut(img) for img in j.images] for ab, j in high.isos.items()} == {
        ab: j.images for ab, j in low.isos.items()
    }
    assert {abc: cut(u) for abc, u in high.gauges.items()} == low.gauges


# -- degree cuts -------------------------------------------------------------------


def low_part(s, T):
    """The terms of s of degree at most T, in s's order and truncation."""
    low = {m: c for m, c in s.coeffs.items() if monomial_degree(m) <= T}
    return SparseTensor(s.slots, s.trunc, low)


def random_series(ctx, rng, slots, least_degree, count=5):
    """count random terms of degree least_degree..trunc on `slots` slots."""
    coeffs = {}
    for _ in range(count):
        total = rng.randint(least_degree, ctx.trunc)
        cuts = sorted(rng.randint(0, total) for _ in range(slots - 1))
        lengths = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
        mono = tuple(tuple(sorted(rng.choices(range(ctx.dim), k=k))) for k in lengths)
        coeffs[mono] = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
    return SparseTensor(slots, ctx.trunc, coeffs)


@pytest.mark.parametrize("problem", ["axb.glb", "sl2-weyl.glb"])
def test_cut_evaluations_are_the_low_degree_part(problem):
    """At N=5, for every cut T from 2 to N, the Poisson bracket, the slot
    coproduct, the star product, the twist defect (of a leading term and of
    a lift corrected to degree 3 only) and the gauge action each equal the
    degree-<=T part of their full result, term order included, and keep
    truncation N as their space."""
    N = 5
    G = bundled(problem)
    ctx = PairingContext(build_delta_gamma(G, 1), N)
    rng = random.Random(7)
    leading = leading_term(G, 1, 0, N)
    lift = lift_twist(ctx, leading)
    half = low_part(lift, 3)
    lam = random_series(ctx, rng, 1, 2)
    cases = []
    for slots in (1, 2, 3):
        a, b = random_series(ctx, rng, slots, 1), random_series(ctx, rng, slots, 1)
        f, g = random_series(ctx, rng, slots, 2), random_series(ctx, rng, slots, 2)
        last = slots - 1
        cases += [
            (lambda T, a=a, b=b: ctx.poisson(a, b, T), ctx.poisson(a, b)),
            (lambda T, f=f, g=g: ctx.bch_star(f, g, T), ctx.bch_star(f, g)),
            (lambda T, a=a, i=last: ctx.coproduct_slot(a, i, T), ctx.coproduct_slot(a, last)),
        ]
    for x in (leading, half):
        full = twist_defect(ctx, x)
        cases.append((lambda T, x=x: twist_defect(ctx, x, cut=T), full))
    cases.append((lambda T: gauge_act(ctx, lam, lift, T), gauge_act(ctx, lam, lift)))
    assert not twist_defect(ctx, half).is_zero()
    assert all(any(monomial_degree(m) > 2 for m in full.num) for _, full in cases)
    for T in range(2, N + 1):
        for cut_eval, full in cases:
            got = cut_eval(T)
            assert got.trunc == N
            assert list(got.coeffs.items()) == list(low_part(full, T).coeffs.items())


def test_poisson_memo_holds_interned_tuples():
    """After a lift, every pair-memo value of each slot count is a flat
    tuple of (code, numerator) ints, and two brackets that share an output
    monomial hold one object: {a, b} and {b, a} read different memo
    entries, and both unpack through the slot count's one table."""
    G = bundled("sl2-weyl.glb")
    ctx = PairingContext(build_delta_gamma(G, 1), 5)
    lift = lift_twist(ctx, leading_term(G, 1, 0, 5))
    memos = [packing.memo for packing in ctx._packings.values()]
    assert memos and all(type(row) is tuple for memo in memos for row in memo.values())
    ef = ctx.coproduct(ctx.series({((1, 2),): 1}))
    first, second = ctx.poisson(ef, lift), ctx.poisson(lift, ef)
    shared = first.num.keys() & second.num.keys()
    assert shared
    same = {m: m for m in second.num}
    assert all(same[m] is m for m in first.num if m in same)


# -- Gamma-equivariance across layers ----------------------------------------------


def conjugated_cobracket(G, a, c, k):
    """theta_a^{(x)2}(delta_c(theta_a^{-1} e_k))."""
    delta_c = build_delta_gamma(G, c)
    t = {}
    for m, cm in mat_apply(G.theta_inv(a), {k: F(1)}).items():
        for ij, v in delta_c.cobracket_tensor(m).items():
            t[ij] = t.get(ij, 0) + cm * v
    return {ij: v for ij, v in wedge2_apply(G.theta[a], t).items() if v}


@pytest.mark.parametrize(
    "problem, N, differ", [("abelian.glb", 4, 0), ("axb.glb", 4, 0), ("sl2-weyl.glb", 4, 4)]
)
def test_theta_transports_the_stack_data(problem, N, differ):
    """delta_{ac} = theta_a delta_c theta_a^{-1} and f_{ac} = f_a + theta_a f_c,
    so S(theta_a), applied slotwise, carries the lift of (e, c) in context e
    to a twist in context a with the leading term of (a, ac), and a gauge
    connects it to the direct lift of (a, ac).  On sl2-weyl at N=4, 4 of
    the 16 transported lifts differ from the direct ones, so the gauge step
    is not the identity."""
    G = bundled(problem)
    grp = G.group
    dim = G.lba.dim
    e = grp.identity
    ctx = {g: PairingContext(build_delta_gamma(G, g), N) for g in grp.elements()}
    changed = 0
    for a in grp.elements():
        theta = AlgebraMap(
            [SparseTensor(1, N, {((i,),): row[j] for i, row in enumerate(G.theta[a])}) for j in range(dim)],
            N,
        )
        for c in grp.elements():
            ac = grp.mul(a, c)
            direct_delta = build_delta_gamma(G, ac)
            for k in range(dim):
                assert conjugated_cobracket(G, a, c, k) == direct_delta.cobracket_tensor(k)
            moved = theta.apply(lift_twist(ctx[e], leading_term(G, e, c, N)))
            assert twist_defect(ctx[a], moved).is_zero()
            direct = lift_twist(ctx[a], leading_term(G, a, ac, N))
            lam = solve_gauge(ctx[a], moved, direct)
            assert gauge_act(ctx[a], lam, moved) == direct
            changed += moved != direct
    assert changed == differ


@pytest.mark.parametrize(
    "problem", ["abelian", "axb", "sl2-weyl", "trivial-que", "abelian-que", "sl2-que"]
)
def test_torus_grading_makes_the_stack_homogeneous(problem):
    """At the file's truncation, under its torus grading: every bracket,
    cobracket and twist term is homogeneous, each f_gamma of weight 0; each
    theta_g maps each weight space into one weight space; every lift and
    gauge has weight 0; and each iso maps e_l into the weight space of e_l."""
    parsed = parse_problem(data_path(f"{problem}.glb").read_text(encoding="utf-8"))
    G, N = parsed.G, parsed.degree
    weights = TORUS_WEIGHTS[problem]
    dim = G.lba.dim
    zero = word_weight(weights, ())
    for i, j, k in G.lba.bracket:
        assert word_weight(weights, (k,)) == word_weight(weights, (i, j))
    for k, i, j in G.lba.cobracket:
        assert word_weight(weights, (k,)) == word_weight(weights, (i, j))
    for f in G.f.values():
        assert all(word_weight(weights, (i, j)) == zero for i, j in f)
    for m in G.theta.values():
        for w in set(weights):
            space = [j for j in range(dim) if weights[j] == w]
            assert len({weights[i] for j in space for i in range(dim) if m[i][j]}) <= 1

    def series_weights(s):
        return {word_weight(weights, tuple(i for slot in mono for i in slot)) for mono in s.num}

    cert = verify_stack(G, N)
    assert cert.ok
    for s in [*cert.lifts.values(), *cert.gauges.values()]:
        assert series_weights(s) <= {zero}
    for j in cert.isos.values():
        for l, image in enumerate(j.images):
            assert series_weights(image) == {weights[l]}


def jordanian_sl2_gamma():
    """sl2 (basis h, e, f) with the triangular r = h^e, delta(x) =
    -(ad_x (x) 1 + 1 (x) ad_x)(r), and Gamma = Z2 x Z2 = {e, a, w, aw}: a
    maps h, e, f to h, -e, -f and w is the Weyl reflection h, e, f to -h,
    -f, -e; f_g = theta_g(r) - r.  Its only torus grading is the zero one:
    f_a = -2 h^e and delta(h) = -2 h^e force wt(h) = -wt(e) and wt(e) = 0,
    and [e, f] = h then forces wt(f) = 0."""
    bracket = sl2_lba().bracket
    r = {(0, 1): F(1), (1, 0): F(-1)}
    cobracket = {}
    for x in range(3):
        for (a, b), c in r.items():
            for (i, j, k), ck in bracket.items():
                if i == x and j == a:
                    cobracket[(x, k, b)] = cobracket.get((x, k, b), 0) - c * ck
                if i == x and j == b:
                    cobracket[(x, a, k)] = cobracket.get((x, a, k), 0) - c * ck
    lba = LieBialgebra(3, ["h", "e", "f"], bracket, cobracket)
    group = FiniteGroup(["e", "a", "w", "aw"], [[g ^ h for h in range(4)] for g in range(4)])
    a = [[F(1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(-1)]]
    w = [[F(-1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(-1), F(0)]]
    aw = [[F(-1), F(0), F(0)], [F(0), F(0), F(1)], [F(0), F(1), F(0)]]
    ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    return from_quasitriangular(lba, group, {0: ident, 1: a, 2: w, 3: aw}, r)


def test_jordanian_stack_solves_only_the_reached_part(monkeypatch):
    """The Jordanian sl2 has no torus grading, yet at N=3 its stack is
    valid, and every system solved under build_iso is one content block of
    1-cochains that a residual reaches: one word, one column."""
    G = jordanian_sl2_gamma()
    assert validate_gamma_lba(G) == []
    solved = []
    inside = []
    real_build_iso, real_solve = stack.build_iso, cohomology.solve_linear

    def tracking_build_iso(*args):
        inside.append(True)
        try:
            return real_build_iso(*args)
        finally:
            inside.pop()

    def recording_solve(sys):
        if inside:
            solved.append(sys.n_cols)
        return real_solve(sys)

    monkeypatch.setattr(stack, "build_iso", tracking_build_iso)
    monkeypatch.setattr(cohomology, "solve_linear", recording_solve)
    assert verify_stack(G, 3).ok
    assert set(solved) == {1}
