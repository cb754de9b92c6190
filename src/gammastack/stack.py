"""Twist lifts, Poisson-Hopf isomorphisms, gauge elements, certificates.

The construction side runs on the Lyndon-basis BCH kernel; certificate
residuals are re-evaluated with the independent Bernoulli-recursion kernel,
so the certified identities never depend on a single star-product code
path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from gammastack.cohomology import CoboundaryObstruction, cohochschild_d, solve_coboundary
from gammastack.formal import PairingContext, build_delta_gamma, tensor2_to_series
from gammastack.liealg import GammaLieBialgebra, wedge2_apply
from gammastack.tensors import (
    Monomial,
    SparseTensor,
    TensorSeries,
    common_den,
    monomial_degree,
    tensor_unit,
)

F = Fraction


class StackBuildError(RuntimeError):
    pass


# -- twist equation ------------------------------------------------------------


def twist_defect(
    ctx: PairingContext, f: TensorSeries, star=None, cut: int | None = None
) -> TensorSeries:
    """f^{1,2} * f^{12,3} - f^{2,3} * f^{1,23} with the context coproduct.

    With a cut (and the default star), exactly its degree-<=cut part.
    """
    star = star or partial(ctx.bch_star, cut=cut)
    left = star(tensor_unit(f, 2), ctx.coproduct_slot(f, 0, cut))
    return left - star(tensor_unit(f, 0), ctx.coproduct_slot(f, 1, cut))


def verify_twist_equation(ctx: PairingContext, f: TensorSeries) -> TensorSeries:
    """Residual of the twist equation via the independent BCH kernel."""
    return twist_defect(ctx, f, star=ctx.bch_star_dynkin)


def _clear_by_degree(x, residual, correct, first: int, N: int, name: str, obstruction: str):
    """Correct x degree by degree until residual(x, N) vanishes.

    residual(x, cut) must agree with the full residual in every degree up
    to cut, and have no term below degree `first`.  Each evaluation reads
    only the degrees up to its cut: `first` at the start (N if lower), then
    deg + 1 after the step at degree deg < N.  At each degree the part
    alpha is a reduced cocycle, solve_coboundary(alpha) gives beta with
    d(beta) = alpha, and x becomes correct(x, beta).  A correction by s*beta
    leaves alpha - s*d(beta) at degree deg and moves only degrees >= deg,
    so s = +1 clears the degree (s = -1 would leave 2*alpha) and a degree
    with a zero part is skipped.  So after the step at the last degree N
    the residual at cut N is alpha - d(beta), and the exact linear identity
    d(beta) = alpha checks it without evaluating the residual again; the
    certificate's verifier evaluates it at N with the independent kernel.
    A part that is not a reduced cocycle, is obstructed (`obstruction` says
    why at degree `first`) or survives its correction raises
    StackBuildError naming the degree.
    """
    res = residual(x, min(first, N))
    low = [m for m in res.num if monomial_degree(m) < first]
    if low:
        raise StackBuildError(f"{name} has a term below degree {first}: {sorted(low)[0]}")
    for deg in range(first, N + 1):
        alpha = res.homogeneous_part(deg)
        if alpha.is_zero():
            if deg < N:
                res = residual(x, deg + 1)
            continue
        try:
            beta = solve_coboundary(alpha)
        except CoboundaryObstruction as exc:
            why = f": {obstruction}" if deg == first else ""
            raise StackBuildError(f"{name} at degree {deg} is not a coboundary{why}") from exc
        except ValueError as exc:
            raise StackBuildError(
                f"{name} at degree {deg} is not a reduced cocycle: {exc}"
            ) from exc
        x = correct(x, beta)
        if deg < N:
            res = residual(x, deg + 1)
            cleared = not any(monomial_degree(m) <= deg for m in res.num)
        else:
            cleared = cohochschild_d(beta) == alpha
        if not cleared:
            raise StackBuildError(f"correction at degree {deg} leaves the degree-{deg} {name}")
    return x


def lift_twist(ctx: PairingContext, leading: TensorSeries) -> TensorSeries:
    """Inductive lift of a degree-(1,1) antisymmetric leading term to a twist.

    Starts from the leading term itself and clears the twist defect from
    degree 3 on (`_clear_by_degree`), adding each coboundary to the lift.
    At degree 3 the defect must have vanishing alternation.
    """
    for m in leading.num:
        if monomial_degree(m) != 2 or any(len(s) != 1 for s in m):
            raise ValueError("leading term must be homogeneous of degree (1,1)")
    obstruction = (
        "nonzero alternation, so the input violates the cyclic twist-compatibility condition"
    )
    return _clear_by_degree(
        leading, lambda f, cut: twist_defect(ctx, f, cut=cut), lambda f, beta: f + beta,
        3, ctx.trunc, "twist defect", obstruction,
    )


def gauge_act(
    ctx: PairingContext, lam: TensorSeries, f: TensorSeries, cut: int | None = None
) -> TensorSeries:
    """lambda . f = lambda^1 * lambda^2 * f * (-lambda)^{12}; with a cut,
    exactly its degree-<=cut part."""
    out = ctx.bch_star(f, ctx.coproduct_slot(lam, 0, cut).scale(-1), cut)
    out = ctx.bch_star(tensor_unit(lam, 0), out, cut)
    return ctx.bch_star(tensor_unit(lam, 1), out, cut)


def solve_gauge(
    ctx: PairingContext, f_src: TensorSeries, f_dst: TensorSeries
) -> TensorSeries:
    """Find lambda in m^2 with gauge_act(lambda, f_src) = f_dst exactly.

    Clears the residual f_dst - gauge_act(lambda, f_src) from degree 2 on
    (`_clear_by_degree`) through the k=1 coboundary problem, with
    lambda <- beta * lambda; a degree-2 obstruction means the leading terms
    differ, and a residual that is not a reduced cocycle means f_src is not
    a twist.
    """
    return _clear_by_degree(
        ctx.zero(1),
        lambda lam, cut: f_dst - gauge_act(ctx, lam, f_src, cut),
        lambda lam, beta: ctx.bch_star(beta, lam),
        2, ctx.trunc, "gauge residual", "the leading terms differ",
    )


# -- algebra isomorphisms -------------------------------------------------------


class AlgebraMap:
    """Commutative-algebra endomorphism of truncated S(g), j(e_i) given."""

    def __init__(self, images: list[TensorSeries], trunc: int):
        self.images = list(images)
        self.trunc = trunc
        self._word_cache: dict[tuple[int, ...], TensorSeries] = {}

    def image_of_word(self, word: tuple[int, ...]) -> TensorSeries:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            out = SparseTensor.unit(1, self.trunc)
        else:
            out = self.image_of_word(word[:-1]) * self.images[word[-1]]
        self._word_cache[word] = out
        return out

    def apply(self, s: TensorSeries) -> TensorSeries:
        """Apply slotwise (j^{(x) n}) to an n-slot series, cut at trunc.

        Each monomial's slots are replaced one by one with their word
        images; terms are summed in order: s's monomials, then the images'.
        The sum runs in int over a running common denominator of the
        images' denominators (`common_den`), times that of s.
        """
        trunc = self.trunc
        out: dict[Monomial, int] = {}
        get = out.get
        den = 1
        for mono, c in s.num.items():
            parts = [((), c, 0)]  # (slots so far, numerator, their degree)
            d = 1
            for word in mono:
                image = self.image_of_word(word)
                d *= image.den
                terms = image.num.items()
                parts = [
                    (slots + m, cc * c2, e + len(m[0]))
                    for slots, cc, e in parts
                    for m, c2 in terms
                    if e + len(m[0]) <= trunc
                ]
            if not parts:
                continue
            den = common_den(out, den, d)
            k = den // d
            for slots, cc, _ in parts:
                v = get(slots, 0) + cc * k
                if v:
                    out[slots] = v
                else:
                    del out[slots]
        return SparseTensor._reduced(trunc, s.slots, out, den * s.den)

    def inverse(self) -> AlgebraMap:
        """Inverse of a map whose linear part is invertible (here: identity)."""
        dim = len(self.images)
        inv_images = [SparseTensor.generator(i, self.trunc) for i in range(dim)]
        for _ in range(self.trunc + 1):
            done = True
            for i in range(dim):
                err = self.apply(inv_images[i]) - SparseTensor.generator(i, self.trunc)
                if not err.is_zero():
                    inv_images[i] = inv_images[i] - err
                    done = False
            if done:
                break
        out = AlgebraMap(inv_images, self.trunc)
        for i in range(dim):
            if out.apply(self.images[i]) != SparseTensor.generator(i, self.trunc):
                raise StackBuildError("algebra map is not invertible at truncation")
        return out


def twisted_coproduct(ctx: PairingContext, f: TensorSeries, a: TensorSeries) -> TensorSeries:
    """f-conjugated coproduct: Ad_star(f) applied to Delta_gamma(a)."""
    return ctx.ad_star(f, ctx.coproduct(a))


def build_u(
    ctx: PairingContext,
    j_ab_inverse: AlgebraMap,
    lift_ab: TensorSeries,
    lift_bc: TensorSeries,
    lift_ac: TensorSeries,
) -> TensorSeries:
    """Gauge element connecting the composed twist to the direct lift.

    The composed element (j^{-1})^{(x)2}(lift_bc) * lift_ab must be a twist
    and match lift_ac's leading term (the group twist composition rule); u
    then solves the gauge equation degree by degree.

    The twist equation of the composed element is checked only when the
    build fails, ahead of the re-raise, so that a composed non-twist still
    reports itself first.  A non-twist usually fails in solve_gauge as a
    gauge residual that is not a cocycle, which solve_gauge raises as a
    StackBuildError, so that error takes the same path.  On success the
    equation holds without a check: solve_gauge ends with the exact check
    gauge_act(u, composed) == lift_ac, the gauge action is a group action
    that maps twists to twists, and lift_ac is a twist (its twist equation
    is a certificate residual), so composed = gauge_act(u^{-1}, lift_ac) is
    one too.
    """
    pulled = j_ab_inverse.apply(lift_bc)
    composed = ctx.bch_star(pulled, lift_ab)
    try:
        if not (composed - lift_ac).homogeneous_part(2).is_zero():
            raise StackBuildError(
                "leading term of composed twist differs from the direct lift: "
                "group twist map violates the composition rule"
            )
        return solve_gauge(ctx, composed, lift_ac)
    except StackBuildError as exc:
        if not twist_defect(ctx, composed).is_zero():
            raise StackBuildError("composed element fails the twist equation") from exc
        raise


def iso_residuals(
    ctx_src: PairingContext,
    ctx_dst: PairingContext,
    twisted: list[TensorSeries],
    jmap: AlgebraMap,
) -> tuple[list[TensorSeries], list[TensorSeries]]:
    """Coproduct and Poisson intertwining residuals on generators.

    twisted[i] is `twisted_coproduct(ctx_src, ftilde, e_i)`; it depends only
    on the twist, so callers build the list once per pair.
    """
    dim = ctx_src.dim
    cop_res = []
    for i in range(dim):
        gen = SparseTensor.generator(i, ctx_src.trunc)
        lhs = ctx_dst.coproduct(jmap.apply(gen))
        rhs = jmap.apply(twisted[i])
        cop_res.append(lhs - rhs)
    poi_res = []
    for i in range(dim):
        for k in range(i + 1, dim):
            a = SparseTensor.generator(i, ctx_src.trunc)
            b = SparseTensor.generator(k, ctx_src.trunc)
            lhs = jmap.apply(ctx_src.poisson(a, b))
            rhs = ctx_dst.poisson(jmap.apply(a), jmap.apply(b))
            poi_res.append(lhs - rhs)
    return cop_res, poi_res


def build_iso(
    ctx_src: PairingContext, ctx_dst: PairingContext, ftilde: TensorSeries
) -> AlgebraMap:
    """Solve for the algebra map intertwining the twisted coproduct and the
    Poisson brackets, degree by degree, identity in degree 1.

    At degree d the unknowns are the degree-d terms p_l of the generator
    images, and the residual's degree-d part is affine in them: every other
    way p_l enters lands at degree d+1 or higher (p(x)p at 2d, {p_i, p_k}
    at 2d-1, p times an image of degree >= 2 at d+1 or more).  p_l moves
    only the coproduct residual of e_l at degree d, by [Delta_dst(p_l)]_d -
    p_l|1 - 1|p_l (the twisted coproduct of e_l has degree-1 part e_l|1 +
    1|e_l).  The top-degree part of Delta_gamma on a PBW word is its
    multiset split, so that is -d(p_l), the co-Hochschild differential of
    the 1-cochain p_l; and d is injective on 1-cochains of degree >= 2 (the
    primitives of S(g) have degree 1).  So p_l = solve_coboundary of the
    part is the one solution, and the Poisson residuals only check it: one
    `iso_residuals` evaluation per solved degree gives the check of degree
    d and the parts of degree d+1.
    """
    N = ctx_src.trunc
    labels = ctx_src.lba.labels
    images = [SparseTensor.generator(i, N) for i in range(ctx_src.dim)]
    twisted = [twisted_coproduct(ctx_src, ftilde, gen) for gen in images]
    cop_res, poi_res = iso_residuals(ctx_src, ctx_dst, twisted, AlgebraMap(images, N))
    for deg in range(2, N + 1):
        if all(r.homogeneous_part(deg).is_zero() for r in cop_res + poi_res):
            continue
        for l, r in enumerate(cop_res):
            alpha = r.homogeneous_part(deg)
            if alpha.is_zero():
                continue
            try:
                p = solve_coboundary(alpha)
            except (CoboundaryObstruction, ValueError) as exc:
                raise StackBuildError(
                    f"isomorphism solve failed at degree {deg}, generator {labels[l]}: {exc}"
                    " (upstream twist data is inconsistent)"
                ) from exc
            images[l] = images[l] + p
        cop_res, poi_res = iso_residuals(ctx_src, ctx_dst, twisted, AlgebraMap(images, N))
        if not all(r.homogeneous_part(deg).is_zero() for r in cop_res + poi_res):
            raise StackBuildError(f"iso residual persists at degree {deg}")
    return AlgebraMap(images, N)


# -- certificates ---------------------------------------------------------------


class ResidualEntry(NamedTuple):
    identity: str
    where: tuple[str, ...]
    degree: int
    residual: str  # "0" or the polynomial

    @property
    def ok(self) -> bool:
        return self.residual == "0"


class StackCertificate(NamedTuple):
    group: list[str]
    truncation: int
    lifts: dict[tuple[int, int], TensorSeries]
    isos: dict[tuple[int, int], AlgebraMap]
    gauges: dict[tuple[int, int, int], TensorSeries]
    residuals: list[ResidualEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.residuals)

    def to_json_dict(self, labels: list[str]) -> dict:
        def fmt(s: TensorSeries) -> str:
            return s.format(labels)

        return {
            "schema_version": 1,
            "kind": "poisson_stack_certificate",
            "group": list(self.group),
            "truncation_degree": self.truncation,
            "valid": self.ok,
            "twist_lifts": {
                f"{self.group[a]},{self.group[b]}": fmt(f)
                for (a, b), f in sorted(self.lifts.items())
            },
            "iso_generator_images": {
                f"{self.group[a]},{self.group[b]}": [fmt(img) for img in j.images]
                for (a, b), j in sorted(self.isos.items())
            },
            "gauge_elements": {
                f"{self.group[a]},{self.group[b]},{self.group[c]}": fmt(s)
                for (a, b, c), s in sorted(self.gauges.items())
            },
            "residuals": [
                {
                    "identity": e.identity,
                    "at": list(e.where),
                    "checked_to_degree": e.degree,
                    "residual": e.residual,
                }
                for e in self.residuals
            ],
        }

    def to_json(self, labels: list[str]) -> str:
        return json.dumps(self.to_json_dict(labels), sort_keys=True, indent=2) + "\n"


def _residual_entry(
    name: str, where: tuple[str, ...], parts: list[TensorSeries], N: int, labels
) -> ResidualEntry:
    """An entry reads "0" only when every part (one per generator) vanishes;
    otherwise it shows the sum of the parts, or the first nonzero part when
    the parts cancel."""
    nonzero = [p for p in parts if not p.is_zero()]
    if not nonzero:
        return ResidualEntry(name, where, N, "0")
    total = sum(nonzero[1:], nonzero[0])
    return ResidualEntry(name, where, N, (nonzero[0] if total.is_zero() else total).format(labels))


class _Memo:
    """Evaluates each step once per distinct input, within one `verify_stack`.

    A step is keyed by its function and its inputs.  A series is its own
    key, so equal series computed apart share one evaluation; it hashes
    once.  Contexts and maps come out of the memo or the context table, so
    equal ones are one object and are keyed by identity.
    """

    def __init__(self):
        self._results: dict[tuple, object] = {}

    def __call__(self, fn, *args):
        key = (fn, *args)
        if key not in self._results:
            self._results[key] = fn(*args)
        return self._results[key]


def _intertwining_residuals(
    ctx_src: PairingContext, ctx_dst: PairingContext, lift: TensorSeries, jmap: AlgebraMap
) -> tuple[list[TensorSeries], list[TensorSeries]]:
    """Coproduct and Poisson intertwining residuals of one iso, from twisted
    coproducts of the lift built here, not taken from build_iso."""
    twisted = [
        twisted_coproduct(ctx_src, lift, SparseTensor.generator(i, ctx_src.trunc))
        for i in range(ctx_src.dim)
    ]
    return iso_residuals(ctx_src, ctx_dst, twisted, jmap)


def _composition_residual(
    ctx: PairingContext, u: TensorSeries, j_ab: AlgebraMap, j_bc: AlgebraMap, j_ac: AlgebraMap
) -> list[TensorSeries]:
    """j_ac(e_i) - j_bc(j_ab(Ad_star(u^{-1}) e_i)), one per generator e_i."""
    u_inverse = u.scale(-1)
    parts = []
    for i in range(ctx.dim):
        gen = SparseTensor.generator(i, ctx.trunc)
        step = j_bc.apply(j_ab.apply(ctx.ad_star(u_inverse, gen)))
        parts.append(j_ac.apply(gen) - step)
    return parts


def _cocycle_residual(
    ctx: PairingContext,
    u_acd: TensorSeries,
    u_abc: TensorSeries,
    u_abd: TensorSeries,
    j_ab_inverse: AlgebraMap,
    u_bcd: TensorSeries,
) -> TensorSeries:
    """u_acd * u_abc - u_abd * (j_ab^{-1})(u_bcd), independent kernel."""
    lhs = ctx.bch_star_dynkin(u_acd, u_abc)
    rhs = ctx.bch_star_dynkin(u_abd, j_ab_inverse.apply(u_bcd))
    return lhs - rhs


def verify_stack(G: GammaLieBialgebra, N: int) -> StackCertificate:
    """Build all lifts, isomorphisms and gauge elements; verify every stack
    identity to degree N with the independent star kernel.

    The composed map j_{bc} o j_{ab} o Ad_star(u^{-1}) is the construction
    the composite-index isomorphism must equal; its agreement with the
    directly solved map is the j-composition residual, and the directly
    solved map carries its own intertwining residuals, so the composed map
    is fully cross-verified.

    Every group tuple is listed and checked, but a tuple whose inputs equal
    an earlier tuple's shares that tuple's evaluation (`_Memo`): elements k
    with theta_k = id and f_k = 0, such as the kernel of a covering of the
    Weyl group, give delta_{ak} = delta_a and the same leading term at
    (ak, bk) as at (a, b).  Builder and residual steps are keyed by
    different functions, so no residual reuses a builder value.
    """
    grp = G.group
    labels = G.lba.labels
    memo = _Memo()
    by_cobracket: dict[frozenset, PairingContext] = {}
    contexts: dict[int, PairingContext] = {}
    for g in grp.elements():
        delta = build_delta_gamma(G, g)
        key = frozenset(delta.cobracket.items())
        if key not in by_cobracket:
            by_cobracket[key] = PairingContext(delta, N)
        contexts[g] = by_cobracket[key]
    pairs = [(a, b) for a in grp.elements() for b in grp.elements()]

    def leading_for(a: int, b: int) -> TensorSeries:
        # Alt(leading) = wedge^2(theta_a)(f_{a^{-1}b}): conjugating a coproduct
        # by a twist with (1,1)-part T shifts the tangent cobracket by
        # [T - T^{21}, -], so the canonical antisymmetric lift carries 1/2.
        gp = grp.mul(grp.inverse[a], b)
        return tensor2_to_series(wedge2_apply(G.theta[a], G.f[gp]), N).scale(F(1, 2))

    def at(tup: tuple[int, ...]) -> str:
        return "(" + ", ".join(grp.labels[x] for x in tup) + ")"

    lifts: dict[tuple[int, int], TensorSeries] = {}
    isos: dict[tuple[int, int], AlgebraMap] = {}
    for (a, b) in pairs:
        try:
            lifts[(a, b)] = memo(lift_twist, contexts[a], leading_for(a, b))
            isos[(a, b)] = memo(build_iso, contexts[a], contexts[b], lifts[(a, b)])
        except StackBuildError as exc:
            raise StackBuildError(f"{exc} (at pair {at((a, b))})") from exc
    inv_isos = {ab: memo(AlgebraMap.inverse, isos[ab]) for ab in pairs}

    triples = [(a, b, c) for a in grp.elements() for b in grp.elements() for c in grp.elements()]
    gauges: dict[tuple[int, int, int], TensorSeries] = {}
    for (a, b, c) in triples:
        try:
            gauges[(a, b, c)] = memo(
                build_u,
                contexts[a],
                inv_isos[(a, b)],
                lifts[(a, b)],
                lifts[(b, c)],
                lifts[(a, c)],
            )
        except StackBuildError as exc:
            raise StackBuildError(f"{exc} (at triple {at((a, b, c))})") from exc

    residuals: list[ResidualEntry] = []

    def record(identity: str, tup: tuple[int, ...], parts: list[TensorSeries]):
        where = tuple(grp.labels[x] for x in tup)
        residuals.append(_residual_entry(identity, where, parts, N, labels))

    # twist equations, independent kernel
    for (a, b) in pairs:
        record("twist-equation", (a, b), [memo(verify_twist_equation, contexts[a], lifts[(a, b)])])
    for (a, b) in pairs:
        cop, poi = memo(
            _intertwining_residuals, contexts[a], contexts[b], lifts[(a, b)], isos[(a, b)]
        )
        record("iso-coproduct-intertwining", (a, b), cop)
        record("iso-poisson-intertwining", (a, b), poi)
    # j-composition on all triples
    for (a, b, c) in triples:
        parts = memo(
            _composition_residual,
            contexts[a],
            gauges[(a, b, c)],
            isos[(a, b)],
            isos[(b, c)],
            isos[(a, c)],
        )
        record("iso-composition", (a, b, c), parts)
    # gauge cocycle identity on all quadruples
    quadruples = [
        (a, b, c, d)
        for a in grp.elements()
        for b in grp.elements()
        for c in grp.elements()
        for d in grp.elements()
    ]
    for (a, b, c, d) in quadruples:
        res = memo(
            _cocycle_residual,
            contexts[a],
            gauges[(a, c, d)],
            gauges[(a, b, c)],
            gauges[(a, b, d)],
            inv_isos[(a, b)],
            gauges[(b, c, d)],
        )
        record("gauge-cocycle", (a, b, c, d), [res])
    return StackCertificate(list(grp.labels), N, lifts, isos, gauges, residuals)
