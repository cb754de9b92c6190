"""Built-in problem constructors, including generated quantum data.

The quantum generators cover the cocommutative, abelian-with-cobracket, and
low-order sl2 cases.  Everything produced here is re-validated by the full
relation validator before being served or serialized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from gammastack.cohomology import solve_coboundary
from gammastack.formal import PairingContext, build_delta_gamma, tensor2_to_series
from gammastack.liealg import (
    FiniteGroup,
    GammaLieBialgebra,
    LieBialgebra,
    Matrix,
    Tensor2,
    classical_yang_baxter,
    theta2_shift,
)
from gammastack.linalg import LinearSystem, solve_linear
from gammastack.problemfile import Problem
from gammastack.quantum import (
    GammaQUEData,
    HElement,
    Key,
    QuantumError,
    QueContext,
    bracket_residual,
    coassociativity_residual,
    conjugation_residual,
    primitive_coeffs,
    tensor_unit,
    twist_residual_quantum,
    validate_que_data,
)
from gammastack.stack import gauge_act, lift_twist
from gammastack.tensors import SparseTensor, _add_into, monomial_degree, slot_monomials

from tools.serialize import quantum_sections_from_data, serialize_problem

F = Fraction


# -- classical constructors ---------------------------------------------------


class QuasitriangularError(ValueError):
    pass


def from_quasitriangular(
    lba: LieBialgebra, group: FiniteGroup, theta: dict[int, Matrix], r: Tensor2
) -> GammaLieBialgebra:
    """Build the twist map f_g = theta_g^{(x)2}(r) - r from an r-matrix."""
    r = {k: Fraction(v) for k, v in r.items() if v != 0}
    t: Tensor2 = dict(r)
    for (i, j), c in r.items():
        _add_into(t, (j, i), c)
    cybe = classical_yang_baxter(lba, r)
    if cybe:
        triple = sorted(cybe)[0]
        raise QuasitriangularError(
            f"classical Yang-Baxter fails at basis triple "
            f"({', '.join(lba.labels[i] for i in triple)})"
        )
    f: dict[int, Tensor2] = {}
    for g in group.elements():
        if theta2_shift(theta[g], t):
            raise QuasitriangularError(
                f"theta[{group.labels[g]}] does not preserve the symmetric part t"
            )
        f[g] = theta2_shift(theta[g], r)
    return GammaLieBialgebra(lba, group, theta, f)


def abelian_gamma_lba() -> GammaLieBialgebra:
    """2-dim abelian algebra, delta(x) = x^y, trivial action and twist."""
    lba = LieBialgebra(2, ["x", "y"], {}, {(0, 0, 1): F(1), (0, 1, 0): F(-1)})
    group = FiniteGroup.cyclic(2, "s")
    ident = [[F(1), F(0)], [F(0), F(1)]]
    return GammaLieBialgebra(lba, group, {0: ident, 1: ident}, {0: {}, 1: {}})


def axb_gamma_lba() -> GammaLieBialgebra:
    """[x,y] = x, delta(y) = x^y; Z/2 acts by x -> -x with f_s = -2 x^y."""
    lba = LieBialgebra(
        2,
        ["x", "y"],
        {(0, 1, 0): F(1), (1, 0, 0): F(-1)},
        {(1, 0, 1): F(1), (1, 1, 0): F(-1)},
    )
    group = FiniteGroup.cyclic(2, "s")
    theta = {0: [[F(1), F(0)], [F(0), F(1)]], 1: [[F(-1), F(0)], [F(0), F(1)]]}
    f = {0: {}, 1: {(0, 1): F(-2), (1, 0): F(2)}}
    return GammaLieBialgebra(lba, group, theta, f)


def sl2_lba() -> LieBialgebra:
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


def sl2_r() -> dict:
    return {(1, 2): F(1), (0, 0): F(1, 4)}


def sl2_weyl_gamma_lba() -> GammaLieBialgebra:
    """Z/4 covering of the Weyl group acting on sl2, quasitriangular twist."""
    group = FiniteGroup.cyclic(4, "w")
    ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    w = [[F(-1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(-1), F(0)]]
    theta = {0: ident, 1: w, 2: ident, 3: w}
    return from_quasitriangular(sl2_lba(), group, theta, sl2_r())


def abelian_twisted_gamma_lba() -> GammaLieBialgebra:
    """Abelian algebra with theta_s = diag(-1,1) and f_s = -2 x^y."""
    lba = LieBialgebra(2, ["x", "y"], {}, {(0, 0, 1): F(1), (0, 1, 0): F(-1)})
    group = FiniteGroup.cyclic(2, "s")
    theta = {0: [[F(1), F(0)], [F(0), F(1)]], 1: [[F(-1), F(0)], [F(0), F(1)]]}
    f = {0: {}, 1: {(0, 1): F(-2), (1, 0): F(2)}}
    return GammaLieBialgebra(lba, group, theta, f)


def trivial_que_base() -> GammaLieBialgebra:
    """ax+b bracket with zero cobracket; Z/2 by x -> -x, f = 0."""
    lba = LieBialgebra(2, ["x", "y"], {(0, 1, 0): F(1), (1, 0, 0): F(-1)}, {})
    group = FiniteGroup.cyclic(2, "s")
    theta = {0: [[F(1), F(0)], [F(0), F(1)]], 1: [[F(-1), F(0)], [F(0), F(1)]]}
    return GammaLieBialgebra(lba, group, theta, {0: {}, 1: {}})


# -- quantum data helpers -------------------------------------------------------


def _additive_coboundary(ctx: QueContext, w: HElement) -> HElement:
    """w^1 + w^2 - Delta(w) for a 1-slot w."""
    return tensor_unit(w, 1) + tensor_unit(w, 0) - ctx.coproduct_slot(w, 0)


def dual_pairing_delta_images(pc: PairingContext, M: int) -> dict[int, dict[Key, Fraction]]:
    """hbar-graded coproduct dual to PBW multiplication in U(g*) with the
    rescaled bracket: each straightening step costs one hbar.

    Output length L terms of the classical dual coproduct are tagged
    hbar^(L-1) on generators, below hbar^M.  For an abelian algebra this is
    a genuine quantized coproduct for the undeformed commutative product.
    """
    images = {}
    for i in range(pc.dim):
        coeffs = images[i] = {}
        for (b1, b2), c in pc.coproduct(SparseTensor.generator(i, pc.trunc)).coeffs.items():
            tag = len(b1) + len(b2) - 1
            if tag < M:
                coeffs[(tag, (b1, b2))] = c
    return images


def to_series(x: HElement) -> SparseTensor:
    """The words of an hbar^0 element as symmetric-algebra monomials: the
    inverse of `QueContext.from_series` at hbar^0."""
    if x.__class__ is not HElement:
        raise ValueError("to_series reads plain slots only")
    if any(a for a, _ in x.num):
        raise ValueError("to_series expects an hbar^0 element")
    return SparseTensor(x.slots, x.ctx.D, {sl: c for (_, sl), c in x.coeffs.items()})


def solve_additive_gauge(ctx: QueContext, target: HElement) -> HElement:
    """Find w in hbar^2 U with w^1 + w^2 - Delta(w) = target (commutative
    ambient); target must be reduced with terms of hbar order >= 2."""
    w = ctx.zero(1)
    for k in range(2, ctx.M):
        rho = (target - _additive_coboundary(ctx, w)).hbar_coefficient(k)
        if rho.is_zero():
            continue
        beta = solve_coboundary(to_series(rho))
        w = w + ctx.from_series(beta, hbar=k)
    if _additive_coboundary(ctx, w) != target:
        raise QuantumError("additive gauge solve failed at truncation")
    return w


def _affine_solve(unknowns: list, residual_fn) -> list[Fraction]:
    """Solve residual(assignment) = 0 for an affine residual, deterministic.

    residual_fn takes {unknown: Fraction} and returns {equation key:
    Fraction}.  Columns are finite differences against the zero assignment.
    """
    base = residual_fn({})
    columns = []
    for u in unknowns:
        diff = dict(residual_fn({u: F(1)}))
        for k, v in base.items():
            _add_into(diff, k, -v)
        columns.append(diff)
    eq_keys = sorted(set(base) | {k for col in columns for k in col})
    rows = [{j: col[key] for j, col in enumerate(columns) if key in col} for key in eq_keys]
    res = solve_linear(LinearSystem(len(unknowns), rows, [-base.get(key, F(0)) for key in eq_keys]))
    if not res.solvable:
        raise QuantumError("affine data-generation solve is inconsistent")
    return res.solution


# -- bundled quantum data ----------------------------------------------------------


@lru_cache(maxsize=None)
def trivial_que_data(M: int = 3, D: int = 4) -> GammaQUEData:
    G = trivial_que_base()
    ctx = QueContext(G, M, D)  # cocommutative ambient
    grp = G.group
    F_ = {g: ctx.unit(2) for g in grp.elements()}
    i_images = {g: [ctx.gen(i) for i in range(G.lba.dim)] for g in grp.elements()}
    v = {(g, h): ctx.unit(1) for g in grp.elements() for h in grp.elements()}
    data = GammaQUEData(ctx, F_, i_images, v)
    issues = validate_que_data(data)
    if issues:
        raise QuantumError(f"trivial data invalid: {issues[0]}")
    return data


@lru_cache(maxsize=None)
def abelian_que_data(M: int = 3, D: int = 4) -> GammaQUEData:
    """Abelian algebra with nontrivial cobracket, twist, and gauge element."""
    G = abelian_twisted_gamma_lba()
    grp = G.group
    n = min(M, D)
    pc = PairingContext(build_delta_gamma(G, grp.identity), n)
    ctx = QueContext(G, M, D, dual_pairing_delta_images(pc, M))
    # classical twist lift, transported along deg t -> hbar^{t-1}; acting with
    # a theta-even cubic gauge breaks the theta-parity of the canonical lift
    # so the composition gauge element below comes out nontrivial
    leading = tensor2_to_series(G.f[1], n).scale(F(1, 2))
    ftilde = lift_twist(pc, leading)
    if n >= 3:
        ftilde = gauge_act(pc, pc.series({((0, 0, 1),): F(1)}), ftilde)
    gexp = {(monomial_degree(mono) - 1, mono): c for mono, c in ftilde.coeffs.items()}
    F_sigma = ctx.exp(HElement(ctx, 2, gexp))
    F_ = {0: ctx.unit(2), 1: F_sigma}
    i_images = {g: [ctx.gen(i) for i in range(2)] for g in grp.elements()}
    # v_{e,s,e} from the twist-composition relation; X is theta-invariant and
    # the solve is theta-equivariant, so the symmetrized solution is exact
    X = ctx.apply_endo(ctx.theta_images(1), F_sigma) * F_sigma
    target = ctx.log(X).scale(-1)
    w = solve_additive_gauge(ctx, target)
    w = (w + ctx.apply_endo(ctx.theta_images(1), w)).scale(F(1, 2))
    if _additive_coboundary(ctx, w) != target:
        raise QuantumError("symmetrized gauge element no longer solves the relation")
    v_ss = ctx.exp(w)
    v = {
        (0, 0): ctx.unit(1),
        (0, 1): ctx.unit(1),
        (1, 0): ctx.unit(1),
        (1, 1): v_ss,
    }
    data = GammaQUEData(ctx, F_, i_images, v)
    issues = validate_que_data(data)
    if issues:
        raise QuantumError(f"generated abelian data invalid: {issues[0]}")
    return data


@lru_cache(maxsize=None)
def sl2_que_data(M: int = 3, D: int = 4) -> GammaQUEData:
    """Low-order quantum Weyl data for sl2 at the Z/4 Weyl covering.

    The ambient coproduct is solved order by order (hbar^1 part is half the
    cobracket; the hbar^2 part solves the bialgebra constraints), then the
    reflection twist is solved from its own twist equation plus the order-4
    wraparound, with hbar^1 part pinned to half the classical twist tensor.
    """
    if M > 3:
        raise QuantumError("sl2 data generated to hbar order 3 only")
    G = sl2_weyl_gamma_lba()
    grp = G.group
    lba = G.lba
    dim = lba.dim

    def delta_images_for(d2_coeffs: dict) -> dict[int, dict[Key, Fraction]]:
        images = {}
        for i in range(dim):
            coeffs = images[i] = primitive_coeffs(i)
            for (p, q), c in lba.cobracket_tensor(i).items():
                coeffs[(1, ((p,), (q,)))] = c / 2
            for (gen, pair), c in d2_coeffs.items():
                if gen == i:
                    coeffs[(2, pair)] = coeffs.get((2, pair), F(0)) + c
        return images

    # reduced 2-slot words of total degree 2..3; the tuple sort fixes the
    # column order of _affine_solve, and with it the generated data
    pairs23 = sorted(m for d in (2, 3) for m in slot_monomials(dim, 2, d))
    unknowns_d2 = [(i, pair) for i in range(dim) for pair in pairs23]

    def delta_residual(assign: dict) -> dict:
        ctx0 = QueContext(G, M, D, delta_images_for(assign))
        out: dict = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                diff = bracket_residual(ctx0, ctx0.delta_images, i, j).hbar_coefficient(2)
                for (a, sl), c in diff.coeffs.items():
                    out[("bracket", i, j, sl)] = c
            diff3 = coassociativity_residual(ctx0, i).hbar_coefficient(2)
            for (a, sl), c in diff3.coeffs.items():
                out[("coassoc", i, sl)] = c
        return out

    sol = _affine_solve(unknowns_d2, delta_residual)
    d2 = {u: c for u, c in zip(unknowns_d2, sol) if c}
    ctx = QueContext(G, M, D, delta_images_for(d2))

    # the reflection twist
    f_w = G.f[1]
    psi1: dict[Key, Fraction] = {}
    for (p, q), c in f_w.items():
        psi1[(1, ((p,), (q,)))] = c / 2
    pairs4 = sorted(m for d in (2, 3, 4) for m in slot_monomials(dim, 2, d))

    def psi_for(assign: dict) -> HElement:
        coeffs = dict(psi1)
        coeffs[(0, ((), ()))] = F(1)
        for pair, c in assign.items():
            coeffs[(2, pair)] = c
        return HElement(ctx, 2, coeffs)

    tau2 = ctx.theta_images(1)

    def psi_residual(assign: dict) -> dict:
        psi = psi_for(assign)
        out: dict = {}
        tw = twist_residual_quantum(ctx, psi).hbar_coefficient(2)
        for (a, sl), c in tw.coeffs.items():
            out[("twist", sl)] = c
        wrap = (ctx.apply_endo(tau2, psi) * psi - ctx.unit(2)).hbar_coefficient(2)
        for (a, sl), c in wrap.coeffs.items():
            out[("wrap", sl)] = c
        # Delta(theta x) = Ad(Psi^{-1})(theta^{(x)2} Delta(x))
        for i in range(dim):
            conj = conjugation_residual(ctx, tau2, psi, i).hbar_coefficient(2)
            for (a, sl), c in conj.coeffs.items():
                out[("conj", i, sl)] = c
        return out

    sol2 = _affine_solve(pairs4, psi_residual)
    psi = psi_for({p: c for p, c in zip(pairs4, sol2) if c})
    F_ = {0: ctx.unit(2), 1: psi}
    F_[2] = ctx.apply_endo(tau2, psi) * psi
    F_[3] = ctx.apply_endo(ctx.theta_images(2), psi) * F_[2]
    i_images = {g: [ctx.gen(i) for i in range(dim)] for g in grp.elements()}
    v = {(g, h): ctx.unit(1) for g in grp.elements() for h in grp.elements()}
    data = GammaQUEData(ctx, F_, i_images, v)
    issues = validate_que_data(data)
    if issues:
        raise QuantumError(f"generated sl2 data invalid: {issues[0]}")
    return data


# -- bundled problems -------------------------------------------------------------


def bundled_problems() -> dict[str, Problem]:
    """The six shipped problem files, regenerated deterministically."""
    return {
        "abelian": Problem(abelian_gamma_lba(), None, None, 5, 3, 4),
        "axb": Problem(axb_gamma_lba(), None, None, 4, 3, 4),
        "sl2-weyl": Problem(sl2_weyl_gamma_lba(), sl2_r(), None, 3, 3, 4),
        "trivial-que": Problem(
            trivial_que_base(), None, quantum_sections_from_data(trivial_que_data(3, 4)), 4, 3, 4
        ),
        "abelian-que": Problem(
            abelian_twisted_gamma_lba(),
            None,
            quantum_sections_from_data(abelian_que_data(3, 4)),
            4,
            3,
            4,
        ),
        "sl2-que": Problem(
            sl2_weyl_gamma_lba(), sl2_r(), quantum_sections_from_data(sl2_que_data(3, 4)), 3, 3, 4
        ),
    }


def write_bundled_data(directory) -> list[str]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, problem in bundled_problems().items():
        text = serialize_problem(problem, header=f"bundled problem: {name}")
        (directory / f"{name}.glb").write_text(text, encoding="utf-8")
        written.append(f"{name}.glb")
    return written
