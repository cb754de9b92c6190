from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from gammastack.quantum import (
    CrossedElement,
    HElement,
    SemidirectBialgebra,
    admissibilize,
    build_semidirect,
    classical_limit_residuals,
    drinfeld_prime_membership_general,
    gauge_transform,
    gauge_twist,
    is_admissible,
    quantize_stack,
    star_hbar_cocycle_residual,
    tensor_unit,
    twist_residual_quantum,
    validate_que_data,
)
from gammastack.tensors import monomial_degree

from tools.bundled import abelian_que_data, sl2_que_data, trivial_que_data

F = Fraction


def test_generated_data_validates():
    for maker in (trivial_que_data, abelian_que_data, sl2_que_data):
        data = maker(3, 4)
        assert validate_que_data(data) == []


def test_abelian_gauge_element_nontrivial():
    data = abelian_que_data(3, 4)
    assert data.v[(1, 1)] != data.ctx.unit(1)


def test_admissibilize_trivial_input():
    data = trivial_que_data(3, 4)
    ctx = data.ctx
    b, f = admissibilize(ctx, data.F[1])
    assert b == ctx.unit(1)
    assert f == data.F[1]


def test_admissibilize_idempotent_on_admissible():
    for maker in (abelian_que_data, sl2_que_data):
        data = maker(3, 4)
        ctx = data.ctx
        for g in ctx.G.group.elements():
            ok, _ = is_admissible(data.F[g])
            assert ok
            b, f = admissibilize(ctx, data.F[g])
            assert b == ctx.unit(1)
            assert f == data.F[g]


def test_admissibilize_symmetric_exponential():
    # abelian flat ambient: F0 = exp(hbar s), s symmetric degree (1,1):
    # already admissible, returned unchanged
    from tools.bundled import trivial_que_base
    from gammastack.liealg import FiniteGroup, GammaLieBialgebra, LieBialgebra
    from gammastack.quantum import QueContext

    lba = LieBialgebra(2, ["x", "y"], {}, {})
    group = FiniteGroup.cyclic(2, "s")
    ident = [[F(1), F(0)], [F(0), F(1)]]
    G = GammaLieBialgebra(lba, group, {0: ident, 1: ident}, {0: {}, 1: {}})
    ctx = QueContext(G, 4, 6)
    s = HElement(ctx, 2, {(1, ((0,), (0,))): F(1)})
    f0 = ctx.exp(s)
    assert twist_residual_quantum(ctx, f0).is_zero()
    b, f = admissibilize(ctx, f0)
    assert b == ctx.unit(1)
    assert f == f0


def backward_f0(M=4, D=8):
    """Admissible twist times a known gauge perturbation (2-dim example)."""
    data = abelian_que_data(M, D)
    ctx = data.ctx
    # a has PBW degree 3, so exp(hbar a) ruins admissibility at order hbar^2
    a = HElement(ctx, 1, {(1, ((0, 0, 1),)): F(1)})
    b0 = ctx.exp(a)
    f0 = gauge_twist(ctx, b0, data.F[1])
    return ctx, data.F[1], b0, f0


def test_admissibilize_backward_constructed():
    ctx, f_adm, b0, f0 = backward_f0()
    ok, witness = is_admissible(f0)
    assert not ok, "backward construction should break admissibility"
    assert twist_residual_quantum(ctx, f0).is_zero(), "gauge preserves the twist equation"
    b, fprime = admissibilize(ctx, f0)
    assert b != ctx.unit(1)
    ok, witness = is_admissible(fprime)
    assert ok, f"witness {witness}"
    # per hbar order: the log lies in the Drinfeld subalgebra at every order
    ell = ctx.hbar_log(fprime)
    for (a, sl), _c in ell.coeffs.items():
        assert a >= monomial_degree(sl)
    # idempotence on the output
    b2, f2 = admissibilize(ctx, fprime)
    assert b2 == ctx.unit(1) and f2 == fprime


@pytest.mark.parametrize(
    "M, D, digest",
    [
        (4, 8, "6dc2820d6131b193ed9c4f5eeea5e124128c25740f553b295f7738f3c7c6c147"),
        (5, 10, "906f644d971086023df6d216a1d0031befa36506d0f0d0510618e47da0070e78"),
    ],
)
def test_admissibilize_backward_constructed_pinned(monkeypatch, M, D, digest):
    """b and F' of the backward-constructed twist are pinned byte for byte,
    and the one corrected order (hbar^2, by exp(-hbar beta)) gauges F once."""
    import gammastack.quantum as quantum

    ctx, _f_adm, _b0, f0 = backward_f0(M, D)
    orders = []

    def counting(ctx, b, f):
        orders.append(min(a for (a, _sl) in (b - ctx.unit(1)).coeffs))
        return gauge_twist(ctx, b, f)

    monkeypatch.setattr(quantum, "gauge_twist", counting)
    b, fprime = admissibilize(ctx, f0)
    labels = ctx.lba.labels
    text = b.format(labels) + "\n" + fprime.format(labels)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert orders == [1]


def test_admissibilize_rejects_non_twist():
    data = abelian_que_data(3, 4)
    ctx = data.ctx
    bad = data.F[1] + HElement(ctx, 2, {(1, ((0,), (0,))): F(1)})
    from gammastack.quantum import QuantumError

    with pytest.raises(QuantumError):
        admissibilize(ctx, bad)


def test_star_hbar_cocycle_residual_vanishes():
    for maker in (abelian_que_data, sl2_que_data):
        data = maker(3, 4)
        ctx = data.ctx
        for g in ctx.G.group.elements():
            chk = star_hbar_cocycle_residual(ctx, data.F[g])
            assert all(a >= ctx.M - 1 for (a, _sl) in chk.coeffs)


def test_gauge_transform_identity():
    data = abelian_que_data(3, 4)
    ctx = data.ctx
    b = {g: ctx.unit(1) for g in ctx.G.group.elements()}
    out = gauge_transform(data, b)
    assert out.F == data.F and out.v == data.v
    for g in ctx.G.group.elements():
        assert out.i_images[g] == data.i_images[g]


def test_gauge_transform_grouplike_central():
    # b = exp(hbar x) is grouplike for the cocommutative ambient and central
    # in the abelian algebra: F unchanged
    data = trivial_que_data(3, 4)
    ctx = data.ctx
    # trivial base has nonabelian bracket; use exp(hbar y)? [x,y]=x: y not
    # central; grouplike centrality needs the abelian ambient instead
    data = abelian_que_data(3, 4)
    ctx = data.ctx
    bx = ctx.exp(ctx.gen(0).hbar_shift(1))
    d = ctx.coproduct_slot(bx, 0)
    b1b2 = tensor_unit(bx, 1) * tensor_unit(bx, 0)
    if d == b1b2:  # grouplike for this ambient
        out = gauge_twist(ctx, bx, data.F[1])
        assert out == data.F[1]
    else:
        # deformed ambient: x is not primitive-grouplike; use the flat case
        from gammastack.liealg import FiniteGroup, GammaLieBialgebra, LieBialgebra
        from gammastack.quantum import QueContext

        lba = LieBialgebra(2, ["x", "y"], {}, {})
        group = FiniteGroup.cyclic(2, "s")
        ident = [[F(1), F(0)], [F(0), F(1)]]
        G = GammaLieBialgebra(lba, group, {0: ident, 1: ident}, {0: {}, 1: {}})
        ctx2 = QueContext(G, 3, 6)
        bx = ctx2.exp(ctx2.gen(0).hbar_shift(1))
        s = HElement(ctx2, 2, {(1, ((0,), (1,))): F(2)})
        f = ctx2.exp(s)
        assert gauge_twist(ctx2, bx, f) == f


def test_gauge_transform_random_revalidates():
    data = abelian_que_data(3, 4)
    ctx = data.ctx
    b = {
        0: ctx.unit(1),
        1: ctx.exp(HElement(ctx, 1, {(1, ((0, 1),)): F(1)})),
    }
    out = gauge_transform(data, b)  # raises if any relation breaks
    assert validate_que_data(out) == []


def test_check_v_admissible_all():
    for maker in (trivial_que_data, abelian_que_data, sl2_que_data):
        data = maker(3, 4)
        for _pair, v in sorted(data.v.items()):
            ok, witness = is_admissible(v)
            assert ok, witness


def membership_from_scratch(x):
    """drinfeld_prime_membership_general with Delta^(n) rebuilt from x for
    each n by n - 1 coproducts at the last slot."""
    ctx = x.ctx
    for n in range(1, min(ctx.M, ctx.D) + 1):
        dn = x
        for _ in range(n - 1):
            dn = ctx.coproduct_slot(dn, dn.slots - 1)
        for key in sorted(dn.coeffs):
            a, sl = key
            if all(sl) and a < n:
                return False, key
    return True, None


def test_membership_carries_the_iterated_coproduct():
    """Carrying Delta^(n) forward one coproduct per n gives the verdict and
    witness of rebuilding it for each n: on every v' of the quantized sl2
    data and its hbar log, on members hbar h, hbar^2 e^2 and hbar^2 ef, and
    on hbar ef and hbar^2 e^3, which fail first at n = 2 and n = 3."""
    cert = quantize_stack(sl2_que_data(3, 4))
    ctx = cert.data_prime.ctx

    def mono(a, word):
        return HElement(ctx, 1, {(a, (word,)): F(1)})

    members = [y for v in cert.data_prime.v.values() for y in (v, ctx.hbar_log(v))]
    members += [mono(1, (0,)), mono(2, (1, 1)), mono(2, (1, 2))]
    outsiders = {2: mono(1, (1, 2)), 3: mono(2, (1, 1, 1))}
    for x in members + list(outsiders.values()):
        assert drinfeld_prime_membership_general(x) == membership_from_scratch(x)
    assert all(drinfeld_prime_membership_general(x) == (True, None) for x in members)
    for n, x in outsiders.items():
        ok, (a, sl) = drinfeld_prime_membership_general(x)
        assert not ok and a < n and len(sl) == n


def test_quantize_stack_certificates():
    for maker in (trivial_que_data, abelian_que_data, sl2_que_data):
        data = maker(3, 4)
        cert = quantize_stack(data)
        assert cert.ok
        assert all(r["residual"] == "0" for r in cert.residuals)


def test_semidirect_trivial_coproduct_primitive():
    data = trivial_que_data(3, 4)
    alg = SemidirectBialgebra(data)
    e = data.ctx.G.group.identity
    x = data.ctx.labeled((0,), e)
    d = alg.coproduct(x)
    expected = CrossedElement(
        data.ctx,
        2,
        {
            (0, (((0,), e), ((), e))): F(1),
            (0, (((), e), ((0,), e))): F(1),
        },
    )
    assert d == expected


def test_semidirect_counit_values():
    data = abelian_que_data(3, 4)
    alg = SemidirectBialgebra(data)
    e = data.ctx.G.group.identity
    assert alg.counit(data.ctx.labeled((), e)) == 1
    assert alg.counit(data.ctx.labeled((), 1)) == 0
    assert alg.counit(data.ctx.labeled((0,), e)) == 0


def test_semidirect_axioms_bundled():
    for maker, M, D in ((trivial_que_data, 3, 4), (abelian_que_data, 3, 4)):
        alg, issues = build_semidirect(maker(M, D), check_degree=1)
        assert issues == []
    # sl2 needs degree headroom for exactness of the axiom sweep
    alg, issues = build_semidirect(sl2_que_data(3, 6), check_degree=1)
    assert issues == []


def test_classical_limit_exact():
    for maker in (trivial_que_data, abelian_que_data, sl2_que_data):
        assert classical_limit_residuals(maker(3, 4)) == []


def test_sl2_r_factor_log_primitive():
    """F factors as exp(hbar S) R^{-1}, S the symmetric part of F's hbar^1
    coefficient; every tensor component of hbar log R is a single generator."""
    data = sl2_que_data(3, 4)
    ctx = data.ctx
    for gamma in (1, 3):
        f = data.F[gamma]
        f1 = f.hbar_coefficient(1)
        sym = (f1 + f1.flip()).scale(F(1, 2)).hbar_shift(1)
        r_inv = ctx.mul(ctx.inverse(ctx.exp(sym)), f)
        ell = ctx.hbar_log(ctx.inverse(r_inv))
        assert all(len(w) == 1 for (_a, sl) in ell.coeffs for w in sl)


def test_gauge_transform_reports_broken_relation():
    """A corrupted v coefficient breaks relation (3) first; the transform
    names it."""
    from gammastack.quantum import GammaQUEData, QuantumError

    data = abelian_que_data(3, 4)
    ctx = data.ctx
    coeffs = dict(data.v[(1, 1)].coeffs)
    key = (2, ((0, 0, 1),))
    coeffs[key] += 1
    bad = GammaQUEData(ctx, dict(data.F), dict(data.i_images), {**data.v, (1, 1): HElement(ctx, 1, coeffs)})
    b = {g: ctx.unit(1) for g in ctx.G.group.elements()}
    with pytest.raises(QuantumError) as exc:
        gauge_transform(bad, b)
    assert str(exc.value) == (
        "gauge transform broke the compatibility relations: "
        "twist composition relation fails at (s,s)"
    )


def _sl2_que_data():
    from gammastack.cli import data_path
    from gammastack.problemfile import build_que_data, parse_problem

    return build_que_data(parse_problem(data_path("sl2-que.glb").read_text(encoding="utf-8")), 3, 6)


def test_quantize_stack_runs_each_relation_pass_once(monkeypatch):
    """On fresh sl2-que data every gauge b_g that admissibilize finds is the
    unit, so gauge_transform gauges no twist and returns the input itself:
    quantize_stack runs the relation pass once, on the input (validation),
    and every other read of it hits the cache."""
    import gammastack.quantum as quantum

    data = _sl2_que_data()
    fresh, gauged = [], []
    real, real_gauge = quantum.relation_residuals, quantum.gauge_twist

    def counted(d):
        if d._relations is None:
            fresh.append(d)
        return real(d)

    def counted_gauge(*args):
        gauged.append(args)
        return real_gauge(*args)

    monkeypatch.setattr(quantum, "relation_residuals", counted)
    monkeypatch.setattr(quantum, "gauge_twist", counted_gauge)
    cert = quantize_stack(data)
    assert cert.ok
    assert all(b == data.ctx.unit(1) for b in cert.gauges.values())
    assert fresh == [data] and gauged == []
    assert cert.data_prime is data


def test_quantize_stack_inverts_each_element_and_map_once(monkeypatch):
    """sl2-que at (3, 6): 28 element inversions on 3 distinct elements (the
    conjugation residual of each (g, generator) asks for F_g^{-1}), so
    3 evaluations of the inverse series, and 1 linear solve: the four i
    maps have one value, so it is inverted once (one block solve of its 3x3
    linear part).  The gauges are units, so gauge_transform inverts none."""
    import gammastack.quantum as quantum
    from gammastack.quantum import QueContext

    data = _sl2_que_data()
    calls = {"inverse": 0, "inverse series": 0, "solve_linear": 0}
    real_inverse, real_series, real_solve = QueContext.inverse, QueContext._series, quantum.solve_linear

    def inverse(self, x):
        calls["inverse"] += 1
        return real_inverse(self, x)

    def series(self, u, coeff, what):
        calls["inverse series"] += what == "inverse"
        return real_series(self, u, coeff, what)

    def solve(system):
        calls["solve_linear"] += 1
        return real_solve(system)

    monkeypatch.setattr(QueContext, "inverse", inverse)
    monkeypatch.setattr(QueContext, "_series", series)
    monkeypatch.setattr(quantum, "solve_linear", solve)
    assert quantize_stack(data).ok
    assert calls == {"inverse": 28, "inverse series": 3, "solve_linear": 1}


def test_admissibilize_reports_only_solver_failures(monkeypatch):
    """An obstruction from the coboundary solve becomes a QuantumError naming
    the hbar order; any other error from it propagates unchanged."""
    import gammastack.quantum as quantum
    from gammastack.cohomology import CoboundaryObstruction
    from gammastack.quantum import QuantumError

    ctx, _f_adm, _b0, f0 = backward_f0()

    def obstructed(alpha):
        raise CoboundaryObstruction("target outside the image of d", alpha)

    monkeypatch.setattr(quantum, "solve_coboundary", obstructed)
    with pytest.raises(QuantumError, match=r"cocycle condition fails at hbar order 2: target outside"):
        admissibilize(ctx, f0)

    def broken(alpha):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(quantum, "solve_coboundary", broken)
    with pytest.raises(TypeError, match="not a solver failure"):
        admissibilize(ctx, f0)
