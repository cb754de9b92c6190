"""Acceptance criteria, one test per criterion.

Every tolerance is exact (residual == 0); each test prints a pass line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import comb

from gammastack.cli import data_path, main
from gammastack.formal import PairingContext, build_delta_gamma, tensor2_to_series
from gammastack.liealg import validate_gamma_lba, wedge2_apply
from gammastack.problemfile import build_que_data, parse_problem
from gammastack.quantum import (
    HElement,
    admissibilize,
    classical_limit_residuals,
    drinfeld_prime_membership,
    drinfeld_prime_membership_general,
    gauge_twist,
    is_admissible,
    quantize_stack,
    twist_residual_quantum,
)
from gammastack.stack import gauge_act, lift_twist, solve_gauge, verify_stack, verify_twist_equation
from gammastack.tensors import monomial_degree

from tools.bundled import abelian_que_data, sl2_que_data
from tools.ranks import cohomology_rank

from conftest import randomized_lift

F = Fraction


def _load(name):
    return parse_problem(data_path(name).read_text(encoding="utf-8"))


def _report(num: int, started: float, budget: float, detail: str):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_axiom_suite():
    t0 = time.monotonic()
    for name in ("abelian.glb", "axb.glb", "sl2-weyl.glb"):
        t1 = time.monotonic()
        assert validate_gamma_lba(_load(name).G) == [], name
        assert time.monotonic() - t1 < 5
    axb_text = data_path("axb.glb").read_text(encoding="utf-8")
    mutations = [
        (axb_text.replace("term -2 x y", "term -1 x y"), "condition-a"),
        (axb_text.replace("[twist s]", "[twist e]\nterm 1 x y\n\n[twist s]"), "condition-b"),
        (axb_text.replace("map x = -1 x", "map x = 2 x"), "theta-homomorphism"),
    ]
    for text, expected in mutations:
        t1 = time.monotonic()
        issues = validate_gamma_lba(parse_problem(text).G)
        assert issues, f"mutation for {expected} accepted"
        assert any(i.condition == expected for i in issues), (
            expected,
            [i.condition for i in issues],
        )
        assert time.monotonic() - t1 < 5
    _report(1, t0, 30, "validator accepts bundled algebras, rejects mutations by name")


def test_criterion_2_cohomology_ranks():
    t0 = time.monotonic()
    for dim in (2, 3):
        for k in (1, 2, 3):
            assert cohomology_rank(dim, k, k) == comb(dim, k), (dim, k)
            for ndeg in range(k + 1, 7):
                assert cohomology_rank(dim, k, ndeg) == 0, (dim, k, ndeg)
    _report(2, t0, 60, "co-Hochschild cohomology = wedge^k(g) at top, 0 above, to degree 6")


def test_criterion_3_lift_oracle():
    t0 = time.monotonic()
    G = _load("axb.glb").G
    N = 5
    ctx = PairingContext(build_delta_gamma(G, 0), N)
    leading = tensor2_to_series(wedge2_apply(G.theta[0], G.f[1]), N).scale(F(1, 2))
    lift = lift_twist(ctx, leading)
    # the oracle: full two-sided evaluation with the independent BCH kernel
    residual = verify_twist_equation(ctx, lift)
    assert residual.is_zero()
    _report(3, t0, 60, "degree-5 lift satisfies the twist equation under the independent evaluator")


def test_criterion_4_gauge_uniqueness():
    t0 = time.monotonic()
    G = _load("axb.glb").G
    N = 4
    ctx = PairingContext(build_delta_gamma(G, 0), N)
    leading = tensor2_to_series(wedge2_apply(G.theta[0], G.f[1]), N).scale(F(1, 2))
    for seed in range(5):
        f1 = randomized_lift(ctx, leading, seed)
        f2 = randomized_lift(ctx, leading, seed + 1000)
        assert f1 != f2
        lam = solve_gauge(ctx, f1, f2)
        assert all(monomial_degree(m) >= 2 for m in lam.coeffs)
        assert gauge_act(ctx, lam, f1) == f2
    _report(4, t0, 120, "randomized lifts connected by solved gauge elements, 5 seeds")


def test_criterion_5_theorem1_certificates():
    t0 = time.monotonic()
    cert_axb = verify_stack(_load("axb.glb").G, 4)
    assert cert_axb.ok
    cert_sl2 = verify_stack(_load("sl2-weyl.glb").G, 3)
    assert cert_sl2.ok
    names = {e.identity for e in cert_axb.residuals}
    assert names == {
        "twist-equation",
        "iso-coproduct-intertwining",
        "iso-poisson-intertwining",
        "iso-composition",
        "gauge-cocycle",
    }
    for cert, order in ((cert_axb, 2), (cert_sl2, 4)):
        per_identity = {}
        for e in cert.residuals:
            per_identity.setdefault(e.identity, 0)
            per_identity[e.identity] += 1
        assert per_identity["iso-composition"] == order**3
        assert per_identity["gauge-cocycle"] == order**4
    _report(5, t0, 600, "stack certificates all-zero for axb (N=4) and sl2-weyl (N=3)")


def test_criterion_6_drinfeld_consistency():
    t0 = time.monotonic()
    from gammastack.quantum import QueContext

    G = _load("sl2-weyl.glb").G
    ctx = QueContext(G, 3, 4)  # cocommutative ambient
    rng = random.Random(2026)
    words = [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (2, 2), (0, 1, 2)]
    agree = 0
    for _ in range(1000):
        coeffs = {}
        for _k in range(rng.randint(1, 3)):
            a = rng.randint(0, 2)
            w = rng.choice(words)
            coeffs[(a, (w,))] = F(rng.randint(-3, 3))
        x = HElement(ctx, 1, coeffs)
        fast, _ = drinfeld_prime_membership(x)
        general, _ = drinfeld_prime_membership_general(x)
        assert fast == general
        agree += 1
    assert agree == 1000
    # multiplicativity on 200 random member pairs
    for _ in range(200):
        def member():
            coeffs = {}
            for _k in range(2):
                w = rng.choice(words)
                if len(w) >= ctx.M:
                    w = ()
                a = rng.randint(len(w), ctx.M - 1)
                coeffs[(a, (w,))] = F(rng.randint(-2, 2))
            return HElement(ctx, 1, coeffs)

        x, y = member(), member()
        ok, _ = drinfeld_prime_membership(x * y)
        assert ok
    _report(6, t0, 60, "membership criteria agree on 1000 elements; closed under 200 products")


def test_criterion_7_admissibilization():
    t0 = time.monotonic()
    data = abelian_que_data(4, 8)
    ctx = data.ctx
    # backward construction: admissible twist times a known bad gauge
    a = HElement(ctx, 1, {(1, ((0, 0, 1),)): F(1)})
    f0 = gauge_twist(ctx, ctx.exp(a), data.F[1])
    assert twist_residual_quantum(ctx, f0).is_zero()
    ok, _ = is_admissible(f0)
    assert not ok
    b, fprime = admissibilize(ctx, f0)
    ok, witness = is_admissible(fprime)
    assert ok, witness
    # admissible at every hbar order <= 4: every log term passes the count
    ell = ctx.hbar_log(fprime)
    for order in range(1, 5):
        for (p, sl), _c in ell.coeffs.items():
            if p == order:
                assert p >= monomial_degree(sl)
    # idempotence on already-admissible input
    b2, f2 = admissibilize(ctx, data.F[1])
    assert b2 == ctx.unit(1) and f2 == data.F[1]
    _report(7, t0, 120, "backward-constructed twist admissibilized at M=4; idempotent on admissible")


def test_criterion_8_theorem2_certificates():
    t0 = time.monotonic()
    for name in ("abelian-que.glb", "sl2-que.glb"):
        problem = _load(name)
        data = build_que_data(problem, M=3, D=4)
        cert = quantize_stack(data)
        assert cert.ok, (name, cert.failures[:1])
        assert all(r["residual"] == "0" for r in cert.residuals), name
        assert all(a["admissible"] for a in cert.admissibility), name
        order = problem.G.group.order
        kinds = {}
        for r in cert.residuals:
            kinds.setdefault(r["identity"], 0)
            kinds[r["identity"]] += 1
        assert kinds["morphism-composition"] == order**3
        assert kinds["exp-gauge-cocycle"] == order**4
    _report(8, t0, 600, "quantum certificates all-zero; every transported gauge admissible")


def test_criterion_9_classical_limit():
    t0 = time.monotonic()
    for maker in ((lambda: build_que_data(_load("trivial-que.glb"))),
                  (lambda: build_que_data(_load("abelian-que.glb"))),
                  (lambda: build_que_data(_load("sl2-que.glb")))):
        data = maker()
        assert classical_limit_residuals(data) == []
    _report(9, t0, 60, "semidirect classical limit matches the co-Poisson envelope exactly")


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"axb-{tag}.json"
        assert main(["stack", str(data_path("axb.glb")), "--degree", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    qouts = []
    for tag in ("a", "b"):
        out = tmp_path / f"q-{tag}.json"
        assert main(["quantize", str(data_path("abelian-que.glb")), "--out", str(out)]) == 0
        qouts.append(out.read_bytes())
    assert qouts[0] == qouts[1]
    assert json.loads(outs[0])["valid"] and json.loads(qouts[0])["valid"]
    _report(10, t0, 120, "certificates byte-identical across runs")
