"""Truncated quantized enveloping algebras and the quantum stack pipeline.

Elements live in U(g)[[hbar]] in PBW normal form, doubly truncated: hbar
powers below M, total PBW degree at most D.  A key is (hbar power, words),
one PBW word per tensor slot: the monomial tuple of the formal side's
`SparseTensor`.  Only the crossed product U(g)[[hbar]] x| Gamma labels its
slots, (word, group element), in a `CrossedElement`.  The ambient coproduct
is an input: an algebra map given by generator images (undeformed primitive
images give the cocommutative case).

The degree cap D is a projection, not an algebra congruence: identities are
exact whenever intermediate products stay within D.  All pipeline elements
couple PBW degree to hbar order (degree <= 2*order + generator degree), so
with D >= 2(M-1) + slack the cap never activates and every stated identity
is a finite exact computation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from math import factorial

from gammastack.cohomology import CoboundaryObstruction, solve_coboundary
from gammastack.formal import bch_apply
from gammastack.liealg import GammaLieBialgebra, copoisson_envelope
from gammastack.linalg import LinearSystem, solve_linear
from gammastack.tensors import (
    Monomial,
    SparseElement,
    SparseTensor,
    _add_into,
    common_den,
    monomial_degree,
    nums_over_lcm,
    sorted_words,
    unit_monomial,
    word_str,
)

F = Fraction
Word = tuple[int, ...]
Key = tuple[int, Monomial]
# the terms of one input slot's image: (den, entries), each entry (hbar
# power, output slots, int numerator over den, PBW degree of the output slots)
Table = tuple[int, tuple[tuple[int, tuple, int, int], ...]]

ONE = F(1)


class QuantumError(RuntimeError):
    pass


class SingularLinearPart(QuantumError):
    """The hbar^0 linear part of an endomorphism is singular."""


class HElement(SparseElement):
    """Sparse, immutable-by-convention element of the truncated algebra.

    Keys are (hbar power, words); the bound is hbar power below ctx.M and
    total PBW degree at most ctx.D.  Every word is a PBW word (its letters
    in increasing order), which the constructor checks: products rely on
    it, as `QueContext.mul` returns the other operand of a unit factor.
    """

    __slots__ = ("ctx",)
    _space = "ctx"
    _degree = staticmethod(monomial_degree)

    @staticmethod
    def _words(sl):
        return sl

    def __init__(self, ctx: QueContext, slots: int, coeffs: dict[Key, Fraction] | None = None):
        self.ctx = ctx
        self.slots = slots
        clean: dict[Key, Fraction] = {}
        if coeffs:
            for (a, sl), c in coeffs.items():
                if len(sl) != slots:
                    raise ValueError("slot count mismatch in key")
                if any(list(w) != sorted(w) for w in self._words(sl)):
                    raise ValueError("a word of the key is not a PBW word")
                if c and a < ctx.M and self._degree(sl) <= ctx.D:
                    clean[(a, sl)] = F(c)
        self.num, self.den = nums_over_lcm(clean)

    def _check(self, other: HElement):
        if self.ctx is not other.ctx or self.slots != other.slots or other.__class__ is not self.__class__:
            raise ValueError("incompatible elements")

    def __mul__(self, other: HElement) -> HElement:
        return self.ctx.mul(self, other)

    def hbar_shift(self, k: int) -> HElement:
        """Multiply by hbar^k (k may be negative; fails on nonzero constant)."""
        out: dict[Key, int] = {}
        for (a, sl), v in self.num.items():
            if a + k < 0:
                raise QuantumError(f"hbar division of a term with hbar^{a}")
            out[(a + k, sl)] = v
        if k <= 0:
            return self._like(out, self.den)
        # a positive shift can pass the hbar bound, so only it is cut
        M = self.ctx.M
        return self._like_reduced({key: v for key, v in out.items() if key[0] < M}, self.den)

    def hbar_coefficient(self, a: int) -> HElement:
        return self._like_reduced({(0, sl): v for (p, sl), v in self.num.items() if p == a}, self.den)

    def flip(self) -> HElement:
        if self.slots != 2:
            raise ValueError("flip needs 2 slots")
        return self._like({(a, (sl[1], sl[0])): v for (a, sl), v in self.num.items()}, self.den)

    def _term(self, key: Key, labels: list[str] | None) -> str:
        a, sl = key
        body = "|".join(word_str(w, labels) for w in sl)
        return f"h^{a} {body}" if a else body

    def __repr__(self):
        return f"{self.__class__.__name__}({self.format()})"

    # -- the slot calculus --------------------------------------------------------

    @classmethod
    def _table(cls, den: int, entries) -> Table:
        """The table of (hbar power, output slots, int numerator over den)
        entries, each with the PBW degree of its slots."""
        degree = cls._degree
        return den, tuple((a, sl, n, degree(sl)) for a, sl, n in entries)

    def _as_table(self) -> Table:
        """The terms of self as one slot's table."""
        return self._table(self.den, ((a, sl, n) for (a, sl), n in self.num.items()))

    @classmethod
    def spread(cls, ctx: QueContext, slots: int, terms) -> HElement:
        """The one-operand maps (`apply_endo`, Delta and the counit on one
        slot): the slotwise product of tables, cut at the truncation, as an
        element of this class.

        Each term is (hbar power below M, numerator, denominator, tables), one
        table per input slot, read eagerly (a sequence, not an iterator).  A
        part picks one entry (hbar power, output slots, numerator, PBW degree)
        per table in slot order; powers and degrees add, numerators multiply,
        denominators multiply (the term's by each table's), slots concatenate.
        A part is dropped once its power reaches M or its degree passes D, and
        the rest are summed in int over a running common denominator
        (`common_den`), in first-seen order (a key that sums to 0 is deleted,
        and comes back at the end), and reduced once.  Cutting early is exact:
        powers and degrees never decrease, and the cap D never looks at hbar.
        So a table may also be computed once at hbar^0 and shifted by each
        term's power, as the semidirect basis products and coproducts are.

        Terms with one or two tables (`apply_endo`, Delta and the counit on
        1-slot elements) run as nested loops that sum each surviving entry
        straight into the running sum; a term with more tables (or none)
        goes through `_fold`.  Products of two elements sum the same parts in
        the same order, with their own loop over term pairs: `_slot_product`.
        """
        M, D = ctx.M, ctx.D
        out: dict[Key, int] = {}
        get = out.get
        L = 1
        for a, n, d, tables in terms:
            for den, _ in tables:
                d *= den
            L = common_den(out, L, d)
            n *= L // d
            if len(tables) == 1:
                (_, t1), = tables
                room = M - a
                for b, sl, m, e in t1:
                    if b < room and e <= D:
                        key = (a + b, sl)
                        v = get(key, 0) + n * m
                        if v:
                            out[key] = v
                        else:
                            del out[key]
                continue
            if len(tables) == 2:
                (_, t1), (_, t2) = tables
                for b1, sl1, m1, e1 in t1:
                    a1 = a + b1
                    if a1 < M and e1 <= D:
                        room, cap, n1 = M - a1, D - e1, n * m1
                        for b, sl, m, e in t2:
                            if b < room and e <= cap:
                                key = (a1 + b, sl1 + sl)
                                v = get(key, 0) + n1 * m
                                if v:
                                    out[key] = v
                                else:
                                    del out[key]
                continue
            _fold(out, M, D, a, n, tables)
        return cls._reduced(ctx, slots, out, L)


def _fold(out: dict, M: int, D: int, a: int, n: int, tables) -> None:
    """Sum the parts of one term (hbar power a, numerator n over the running
    denominator, one table per slot) into out, as `spread` sums them: the
    parts of all but the last table are collected in a list, then each folds
    the last table straight into the running sum.  A term of no slots (a
    scalar) folds the one entry of the empty slot."""
    get = out.get
    *lead, (_, last) = tables or (_COUNIT,)
    parts = [(a, (), n, 0)]
    for _, table in lead:
        parts = [
            (aa + b, done + sl, nn * m, deg + e)
            for aa, done, nn, deg in parts
            for b, sl, m, e in table
            if aa + b < M and deg + e <= D
        ]
    for aa, done, nn, deg in parts:
        room, cap = M - aa, D - deg
        for b, sl, m, e in last:
            if b < room and e <= cap:
                key = (aa + b, done + sl)
                v = get(key, 0) + nn * m
                if v:
                    out[key] = v
                else:
                    del out[key]


def _slot_product(x: HElement, y: HElement, memo: dict, build) -> HElement:
    """The slotwise product x y, as an element of their class: the parts
    and sums of `spread`, in the same first-seen key order, with one term per
    pair of terms that starts below hbar^M (most pairs of a power series do
    not).  The caller checks that x and y are compatible.

    The table of a slot pair (s1, s2) is memo[(s1, s2)], and build(s1, s2)
    makes and stores it on a miss.  The pair loop reads the tables itself and
    rescales the running sum only when its denominator is not a multiple of
    the pair's; 1- and 2-slot pairs sum each surviving entry straight into
    the running sum, and other slot counts (a scalar, the 3-slot products of
    `quantize`) go through `_fold`.
    """
    ctx = x.ctx
    M, D, slots = ctx.M, ctx.D, x.slots
    table = memo.get
    out: dict[Key, int] = {}
    get = out.get
    L = 1
    dxy = x.den * y.den
    ys = list(y.num.items())
    for (a1, sl1), n1 in x.num.items():
        room1 = M - a1
        for (a2, sl2), n2 in ys:
            if a2 >= room1:
                continue
            a = a1 + a2
            if slots == 1:
                pair = (sl1[0], sl2[0])
                den, t1 = table(pair) or build(*pair)
                d = dxy * den
                if L % d:
                    L = common_den(out, L, d)
                n = n1 * n2 * (L // d)
                room = M - a
                for b, sl, m, e in t1:
                    if b < room and e <= D:
                        key = (a + b, sl)
                        v = get(key, 0) + n * m
                        if v:
                            out[key] = v
                        else:
                            del out[key]
            elif slots == 2:
                pair1, pair2 = (sl1[0], sl2[0]), (sl1[1], sl2[1])
                den1, t1 = table(pair1) or build(*pair1)
                den2, t2 = table(pair2) or build(*pair2)
                d = dxy * den1 * den2
                if L % d:
                    L = common_den(out, L, d)
                n = n1 * n2 * (L // d)
                for b1, s1, m1, e1 in t1:
                    p = a + b1
                    if p < M and e1 <= D:
                        room, cap, k = M - p, D - e1, n * m1
                        for b, sl, m, e in t2:
                            if b < room and e <= cap:
                                key = (p + b, s1 + sl)
                                v = get(key, 0) + k * m
                                if v:
                                    out[key] = v
                                else:
                                    del out[key]
            else:
                tables = [table(pair) or build(*pair) for pair in zip(sl1, sl2)]
                d = dxy
                for den, _ in tables:
                    d *= den
                if L % d:
                    L = common_den(out, L, d)
                _fold(out, M, D, a, n1 * n2 * (L // d), tables)
    return x._reduced(ctx, slots, out, L)


def _slot_terms(x: HElement, idx: int, table):
    """The terms applying table(slot) at slot idx and the identity elsewhere,
    each with its list of tables.  The identity table of a slot is built once
    per context and shared by every term that meets the slot."""
    identity = x.ctx._identity_tables
    for (a, sl), n in x.num.items():
        tables = []
        for s in sl:
            t = identity.get(s)
            if t is None:
                t = identity[s] = x._table(1, ((0, (s,), 1),))
            tables.append(t)
        tables[idx] = table(sl[idx])
        yield a, n, x.den, tables


def _is_unit(x: HElement) -> bool:
    """x is the unit of its slot count: one term 1 at hbar^0 with every word
    empty."""
    if x.den != 1 or len(x.num) != 1:
        return False
    ((a, sl), n), = x.num.items()
    return n == 1 and a == 0 and not any(sl)


def _unit_table(slots: int) -> Table:
    return HElement._table(1, ((0, unit_monomial(slots), 1),))


# the counit on a slot: an empty slot leaves no slot, any other slot no term
_COUNIT = HElement._table(1, ((0, (), 1),))
_NO_TERMS = HElement._table(1, ())


def primitive_coeffs(i: int) -> dict[Key, Fraction]:
    """The coefficients of the primitive image e_i|1 + 1|e_i."""
    return {(0, ((i,), ())): ONE, (0, ((), (i,))): ONE}


class QueContext:
    """Arena for one (algebra, truncation, ambient coproduct) combination."""

    def __init__(
        self,
        G: GammaLieBialgebra,
        M: int,
        D: int,
        coproduct: dict[int, dict[Key, Fraction]] | None = None,
    ):
        self.G = G
        self.lba = G.lba
        self.M = M
        self.D = D
        self._mul_slot_cache: dict[tuple[Word, Word], Table] = {}
        # the identity table of each slot `_slot_terms` meets; a plain word
        # (ints only) never equals a crossed (word, label) slot
        self._identity_tables: dict = {}
        # word images under Delta and under each endomorphism (keyed by the
        # tuple of its generator images), see `_word_table`
        self._delta_word_cache: dict[Word, Table] = {(): _unit_table(2)}
        self._endo_word_cache: dict[tuple[HElement, ...], dict[Word, Table]] = {}
        self._theta_images: dict[int, list[HElement]] = {}
        # element and map inverses, keyed by value
        self._inverse_cache: dict[HElement, HElement] = {}
        self._invert_endo_cache: dict[tuple[HElement, ...], list[HElement]] = {}
        # ambient coproduct: 2-slot generator images from their coefficients
        # {generator: {key: coefficient}}; a generator left out is primitive
        coproduct = coproduct or {}
        primitive = [HElement(self, 2, primitive_coeffs(i)) for i in range(self.lba.dim)]
        self.delta_images = [
            HElement(self, 2, coproduct[i]) if i in coproduct else p for i, p in enumerate(primitive)
        ]
        self.cocommutative = self.delta_images == primitive

    # -- constructors -----------------------------------------------------------

    def zero(self, slots: int = 1) -> HElement:
        return HElement(self, slots)

    def unit(self, slots: int = 1) -> HElement:
        return HElement(self, slots, {(0, unit_monomial(slots)): F(1)})

    def gen(self, i: int) -> HElement:
        return HElement(self, 1, {(0, ((i,),)): F(1)})

    def labeled(self, word: Word, gamma: int) -> CrossedElement:
        return CrossedElement(self, 1, {(0, ((word, gamma),)): F(1)})

    def from_series(self, s: SparseTensor, hbar: int = 0) -> HElement:
        """A symmetric-algebra tensor's monomials as PBW words at hbar^hbar."""
        num = {(hbar, mono): v for mono, v in s.num.items() if monomial_degree(mono) <= self.D}
        return HElement._reduced(self, s.slots, num if hbar < self.M else {}, s.den)

    # -- multiplication ----------------------------------------------------------

    def _mul_slot(self, w1: Word, w2: Word) -> Table:
        """The table of w1 w2 in PBW form, stored in `_mul_slot_cache`."""
        num, den = nums_over_lcm(self.lba.straighten(w1 + w2))
        out = self._mul_slot_cache[(w1, w2)] = HElement._table(den, ((0, (w,), n) for w, n in num.items()))
        return out

    def mul(self, x: HElement, y: HElement) -> HElement:
        if x.__class__ is not HElement or y.__class__ is not HElement:
            raise ValueError("QueContext multiplies plain slots only")
        x._check(y)
        if x.ctx is not self:
            raise ValueError("incompatible elements")
        # every key is a PBW word within the bounds, so a unit factor
        # returns the other operand term for term and in key order
        if _is_unit(y):
            return x
        if _is_unit(x):
            return y
        return _slot_product(x, y, self._mul_slot_cache, self._mul_slot)

    def commutator(self, x: HElement, y: HElement) -> HElement:
        return self.mul(x, y) - self.mul(y, x)

    def bracket_hbar(self, x: HElement, y: HElement) -> HElement:
        """[x, y] / hbar, defined on the canonical polynomial representatives."""
        return self.commutator(x, y).hbar_shift(-1)

    # -- exp / log / inverse -------------------------------------------------------

    def _series(self, u: HElement, coeff, what: str) -> HElement:
        """The power series sum_k coeff(k) u^k for u in hbar·U.

        u^k lies in hbar^k·U, so the sum is finite at the truncation: the loop
        stops at the first power that vanishes, at the latest u^M.  `what`
        names the caller in the error for an argument with an hbar^0 term.
        """
        for a, _ in u.num:
            if a == 0:
                raise QuantumError(f"{what} needs an argument in hbar·U")
        power = self.unit(u.slots)
        out = power.scale(coeff(0))
        for k in range(1, self.M + 1):
            power = self.mul(power, u)
            if power.is_zero():
                break
            out = out + power.scale(coeff(k))
        return out

    def exp(self, z: HElement) -> HElement:
        return self._series(z, lambda k: F(1, factorial(k)), "exp")

    def log(self, x: HElement) -> HElement:
        return self._series(
            x - self.unit(x.slots), lambda k: F((-1) ** (k + 1), k) if k else 0, "log"
        )

    def hbar_log(self, x: HElement) -> HElement:
        return self.log(x).hbar_shift(1)

    def inverse(self, x: HElement) -> HElement:
        """sum_k (1 - x)^k, evaluated once per distinct value of x."""
        out = self._inverse_cache.get(x)
        if out is None:
            out = self._inverse_cache[x] = self._series(self.unit(x.slots) - x, lambda k: ONE, "inverse")
        return out

    def star_hbar(self, x: HElement, y: HElement) -> HElement:
        """CBH product for the rescaled bracket [a,b]/hbar."""
        if x.is_zero():
            return y
        if y.is_zero():
            return x
        return bch_apply(self.bracket_hbar, x, y, self.M + 1)

    # -- coproduct -------------------------------------------------------------------

    def _word_table(self, cache: dict[Word, Table], images: list[HElement], word: Word) -> Table:
        """The image of a word under the algebra map with generator images
        `images`, memoised by word in `cache` (which holds the empty word):
        the image of word[:-1] times that of its last letter."""
        table = cache.get(word)
        if table is None:
            last = images[word[-1]]
            den, prev = self._word_table(cache, images, word[:-1])
            out = HElement._trusted(self, last.slots, {(a, sl): n for a, sl, n, _ in prev}, den) * last
            table = cache[word] = out._as_table()
        return table

    def coproduct_slot(self, x: HElement, idx: int) -> HElement:
        """Apply the ambient coproduct to one slot of x."""
        if x.__class__ is not HElement:
            raise ValueError("Delta acts on plain slots only")
        if x.ctx is not self:
            raise ValueError("incompatible elements")
        delta = partial(self._word_table, self._delta_word_cache, self.delta_images)
        return HElement.spread(self, x.slots + 1, _slot_terms(x, idx, delta))

    def counit_slot(self, x: HElement, idx: int) -> HElement:
        """The counit on slot idx of x, plain or crossed: the terms whose
        slot there has degree 0, with that slot dropped."""
        if x.ctx is not self:
            raise ValueError("incompatible elements")
        return x.spread(
            self, x.slots - 1, _slot_terms(x, idx, lambda s: _NO_TERMS if x._degree((s,)) else _COUNIT)
        )

    # -- endomorphisms by generator images ---------------------------------------------

    def theta_images(self, gamma: int) -> list[HElement]:
        cached = self._theta_images.get(gamma)
        if cached is None:
            m = self.G.theta[gamma]
            cached = self._theta_images[gamma] = _linear_images(self, zip(*m))
        return cached

    def apply_endo(self, images: list[HElement], x: HElement) -> HElement:
        """Apply the algebra endomorphism with given generator images, slotwise."""
        if x.__class__ is not HElement:
            raise ValueError("endomorphisms act on plain slots only")
        if any(y.ctx is not self for y in (x, *images)):
            raise ValueError("incompatible elements")
        # cache by value: image lists are rebuilt freely by callers
        cache = self._endo_word_cache.setdefault(tuple(images), {(): _unit_table(1)})
        image = partial(self._word_table, cache, images)
        return HElement.spread(self, x.slots, ((a, n, x.den, list(map(image, sl))) for (a, sl), n in x.num.items()))

    def invert_endo(self, images: list[HElement]) -> list[HElement]:
        """Generator images of the inverse endomorphism, corrected order by
        order from the inverse of the hbar^0 linear part; evaluated once per
        distinct value of images, so the list returned must not be mutated."""
        key = tuple(images)
        cached = self._invert_endo_cache.get(key)
        if cached is not None:
            return cached
        dim = self.lba.dim
        leading = linear_leading_inverse(self, images)
        inv = list(leading)
        for _ in range(self.M + 1):
            done = True
            for i in range(dim):
                err = self.apply_endo(images, inv[i]) - self.gen(i)
                if not err.is_zero():
                    inv[i] = inv[i] - self.apply_endo(leading, err)
                    done = False
            if done:
                break
        for i in range(dim):
            if self.apply_endo(images, inv[i]) != self.gen(i):
                raise QuantumError("endomorphism is not invertible at truncation")
        self._invert_endo_cache[key] = inv
        return inv


def _linear_images(ctx: QueContext, columns) -> list[HElement]:
    """The generator images e_j -> sum_k columns[j][k] e_k."""
    images = ({(0, ((k,),)): c for k, c in enumerate(col) if c} for col in columns)
    return [HElement(ctx, 1, image) for image in images]


def linear_leading_inverse(ctx: QueContext, images: list[HElement]) -> list[HElement]:
    """Generator images inverting the hbar^0 linear part of an endomorphism:
    column j solves (linear part) x = e_j.  All columns come from one block
    system, whose unknown j * dim + k is entry k of column j.
    SingularLinearPart if the linear part is singular."""
    dim = ctx.lba.dim
    rows: list[dict[int, Fraction]] = [{} for _ in range(dim)]
    for j, img in enumerate(images):
        for (a, sl), c in img.coeffs.items():
            if a == 0 and len(sl[0]) == 1:
                _add_into(rows[sl[0][0]], j, c)
    block = [{j * dim + k: c for k, c in row.items()} for j in range(dim) for row in rows]
    rhs = [int(r == j) for j in range(dim) for r in range(dim)]
    result = solve_linear(LinearSystem(dim * dim, block, rhs))
    if result.rank < dim * dim:
        raise SingularLinearPart("the hbar^0 linear part is singular")
    return _linear_images(ctx, (result.solution[j * dim : (j + 1) * dim] for j in range(dim)))


# -- Drinfeld subalgebra membership ---------------------------------------------------


def drinfeld_prime_membership(x: HElement) -> tuple[bool, Key | None]:
    """Fast monomial criterion for cocommutative ambients.

    A term hbar^a (x) words belongs iff a >= total PBW length.
    """
    if x.__class__ is not HElement:
        raise ValueError("membership is defined on plain slots only")
    for key in sorted(x.num):
        a, sl = key
        if a < monomial_degree(sl):
            return False, key
    return True, None


def drinfeld_prime_membership_general(x: HElement) -> tuple[bool, Key | None]:
    """Reduced-iterated-coproduct criterion, valid for deformed ambients.

    x (1-slot) belongs iff for all n, ((id - unit o counit)^{(x)n} o
    Delta^(n))(x) lies in hbar^n U^{(x)n}, checked at the truncation.
    """
    ctx = x.ctx
    if x.slots != 1:
        raise ValueError("membership test expects a 1-slot element")
    dn = x
    for n in range(1, min(ctx.M, ctx.D) + 1):
        if n > 1:
            dn = ctx.coproduct_slot(dn, n - 2)
        for key in sorted(dn.num):
            a, sl = key
            if not all(sl):
                continue  # killed by (id - unit o counit)
            if a < n:
                return False, key
    return True, None


def is_admissible(x: HElement) -> tuple[bool, Key | None]:
    """x in 1 + hbar U with hbar log x in the Drinfeld subalgebra."""
    ctx = x.ctx
    u = x - ctx.unit(x.slots)
    for a, _sl in u.num:
        if a == 0:
            raise QuantumError("admissibility needs x in 1 + hbar U")
    ell = ctx.hbar_log(x)
    if x.slots == 1 and not ctx.cocommutative:
        return drinfeld_prime_membership_general(ell)
    # multi-slot or cocommutative: monomial criterion on total length
    # (slotwise splitting of hbar powers reduces the completed tensor square
    # of the subalgebra to the total-length count)
    return drinfeld_prime_membership(ell)


# -- quantum twist manipulation ---------------------------------------------------------


def tensor_unit(x: HElement, pos: int) -> HElement:
    """x with a unit slot inserted at position pos (pos = x.slots appends it)."""
    num = {(a, sl[:pos] + ((),) + sl[pos:]): v for (a, sl), v in x.num.items()}
    return HElement._trusted(x.ctx, x.slots + 1, num, x.den)


def twist_residual_quantum(ctx: QueContext, f: HElement) -> HElement:
    """F^{1,2} F^{12,3} - F^{2,3} F^{1,23} for a 2-slot element."""
    left = tensor_unit(f, 2) * ctx.coproduct_slot(f, 0)
    return left - tensor_unit(f, 0) * ctx.coproduct_slot(f, 1)


def star_hbar_cocycle_residual(ctx: QueContext, f: HElement) -> HElement:
    """(-a)^{1,23} *_h (-a)^{2,3} *_h a^{1,2} *_h a^{12,3} for a = hbar log F.

    Vanishing of this combination is the log form of the twist equation;
    `admissibilize` checks it once on its input, before its loop.  Exact
    modulo one hbar order lost to the rescaled bracket.
    """
    a = ctx.hbar_log(f)
    out = ctx.star_hbar(ctx.coproduct_slot(a, 1).scale(-1), tensor_unit(a, 0).scale(-1))
    out = ctx.star_hbar(out, tensor_unit(a, 2))
    return ctx.star_hbar(out, ctx.coproduct_slot(a, 0))


def gauge_twist(ctx: QueContext, b: HElement, f: HElement) -> HElement:
    """b^{(x)2} F Delta(b^{-1})."""
    return tensor_unit(b, 1) * tensor_unit(b, 0) * f * ctx.coproduct_slot(ctx.inverse(b), 0)


def admissibilize(ctx: QueContext, f0: HElement) -> tuple[HElement, HElement]:
    """Gauge a twist into an admissible one; returns (b, F').

    Iterative: at step n the class of hbar log F at hbar order n+1 modulo
    the Drinfeld subalgebra (identified with the high-PBW-degree part) is a
    cocycle of the co-Hochschild complex; its coboundary preimage is
    exponentiated into the gauge.  Already-admissible input returns b = 1.
    """
    if f0.slots != 2:
        raise ValueError("admissibilize expects a 2-slot twist")
    if not (f0 - ctx.unit(f0.slots)).hbar_coefficient(0).is_zero():
        raise QuantumError("twist must lie in 1 + hbar U")
    res = twist_residual_quantum(ctx, f0)
    if not res.is_zero():
        raise QuantumError("input does not satisfy the twist equation")
    chk = star_hbar_cocycle_residual(ctx, f0)
    for a, _sl in chk.num:
        if a < ctx.M - 1:
            raise QuantumError("log-form cocycle condition fails below truncation slack")
    b = ctx.unit(1)
    f = f0
    for n in range(1, ctx.M - 1):
        ell = ctx.hbar_log(f)
        # loop invariant: below order n+1 everything is already in U'
        for a, sl in ell.num:
            if a <= n and a < monomial_degree(sl):
                raise QuantumError(f"admissibilization invariant broken at order {a}")
        bad = {sl: v for (a, sl), v in ell.num.items() if a == n + 1 and monomial_degree(sl) > n + 1}
        if not bad:
            continue
        alpha = SparseTensor._reduced(ctx.D, 2, bad, ell.den)
        try:
            beta = solve_coboundary(alpha)
        except (CoboundaryObstruction, ValueError) as exc:
            raise QuantumError(
                f"cocycle condition fails at hbar order {n + 1}: {exc}"
            ) from exc
        # gauging by exp(hbar^n beta) adds d(beta) = alpha to the bad class,
        # so only exp(-hbar^n beta) clears it
        bn = ctx.exp(ctx.from_series(beta, hbar=n).scale(-1))
        f = gauge_twist(ctx, bn, f)
        b = bn * b
    ok, witness = is_admissible(f)
    if not ok:
        raise QuantumError(f"admissibilization failed; witness {witness}")
    return b, f


# -- the Gamma QUE data ------------------------------------------------------------------


# one entry of the relation pass: relation name, group tuple, residual elements
Relation = tuple[str, tuple[int, ...], list[HElement]]


class GammaQUEData:
    """F, i, v collections at base e.

    General indices are obtained by theta-conjugated left translation:
    F_{g,gh} = theta_g^{(x)2}(F_{e,h}), i_{g,gh} = i_{e,h}, and
    v_{g,gh,ghk} = theta_g(v_{e,h,hk}).  This is the unique translation for
    which the semidirect product and coproduct fit into a bialgebra, and it
    forces the i maps to have identity classical limit.

    Immutable by convention: only the relation pass is cached on the
    instance; the context memoises the inverses of the i maps by value."""

    def __init__(
        self,
        ctx: QueContext,
        F: dict[int, HElement],
        i_images: dict[int, list[HElement]],
        v: dict[tuple[int, int], HElement],
    ):
        self.ctx = ctx
        self.F = F
        self.i_images = i_images
        self.v = v
        self._relations: list[Relation] | None = None

    def i_inverse_images(self, gamma: int) -> list[HElement]:
        return self.ctx.invert_endo(self.i_images[gamma])


# -- residuals of the Gamma-QUE identities --------------------------------------------------


def bracket_residual(ctx: QueContext, images: list[HElement], i: int, j: int) -> HElement:
    """[images_i, images_j] - sum_k c_ij^k images_k: zero iff the generator
    images respect the bracket relation of (e_i, e_j)."""
    target = ctx.zero(images[i].slots)
    for k, c in ctx.lba.bracket_elems(i, j).items():
        target = target + images[k].scale(c)
    return ctx.commutator(images[i], images[j]) - target


def _bracket_failures(ctx: QueContext, images: list[HElement]) -> list[tuple[int, int]]:
    """The ordered pairs (i, j), i != j, in row order, whose bracket residual
    is not zero.  A diagonal pair is skipped: [x, x] = 0, and c_ii^k = 0 since
    the bracket is antisymmetric (a file cannot state `bracket a a`).  Each
    unordered pair is evaluated once: when c_ji = -c_ij the (j, i) residual
    is the negative of the (i, j) one, so it fails with it."""
    bracket = ctx.lba.bracket_elems
    dim = len(images)
    failed = set()
    for i in range(dim):
        for j in range(i + 1, dim):
            if not bracket_residual(ctx, images, i, j).is_zero():
                failed.add((i, j))
            if bracket(j, i) == {k: -c for k, c in bracket(i, j).items()}:
                if (i, j) in failed:
                    failed.add((j, i))
            elif not bracket_residual(ctx, images, j, i).is_zero():
                failed.add((j, i))
    return [(i, j) for i in range(dim) for j in range(dim) if (i, j) in failed]


def coassociativity_residual(ctx: QueContext, i: int) -> HElement:
    """(Delta (x) id - id (x) Delta) Delta(e_i) for the ambient coproduct."""
    d = ctx.coproduct_slot(ctx.gen(i), 0)
    return ctx.coproduct_slot(d, 0) - ctx.coproduct_slot(d, 1)


def conjugation_residual(ctx: QueContext, theta: list[HElement], F: HElement, i: int) -> HElement:
    """Delta(theta e_i) - F^{-1} theta^{(x)2}(Delta e_i) F, for theta given by
    generator images; the coproduct-conjugation identity at generator i."""
    lhs = ctx.coproduct_slot(ctx.apply_endo(theta, ctx.gen(i)), 0)
    return lhs - ctx.inverse(F) * ctx.apply_endo(theta, ctx.coproduct_slot(ctx.gen(i), 0)) * F


def relation_residuals(data: GammaQUEData) -> list[Relation]:
    """Residuals of the compatibility relations (3), (4) and (5) at base e.

    - (3) twist composition, per pair (g, h):
      v^1 v^2 i_g^{-1}(theta_g^{(x)2} F_h) F_g Delta(v^{-1}) - F_gh, v = v_{g,h};
    - (4) morphism composition, per pair, one residual per generator e_k:
      i_gh(e_k) - i_h(i_g(Ad(v^{-1}) e_k));
    - (5) gauge cocycle, per triple (g, h, k):
      v_{gh,k} v_{g,h} - v_{g,hk} i_g^{-1}(theta_g v_{h,k}).

    Entries are named "twist composition", "morphism composition" and "gauge
    cocycle" and come in report order: (3) then (4) for each pair, then (5)
    for each triple.  The pass runs once per data and is cached on it.
    """
    if data._relations is not None:
        return data._relations
    ctx = data.ctx
    grp = ctx.G.group
    out: list[Relation] = []
    for g in grp.elements():
        for h in grp.elements():
            gh = grp.mul(g, h)
            v = data.v[(g, h)]
            vinv = ctx.inverse(v)
            pulled = ctx.apply_endo(data.i_inverse_images(g), ctx.apply_endo(ctx.theta_images(g), data.F[h]))
            twist = tensor_unit(v, 1) * tensor_unit(v, 0) * pulled * data.F[g]
            twist = twist * ctx.coproduct_slot(vinv, 0)
            out.append(("twist composition", (g, h), [twist - data.F[gh]]))
            morphism = []
            for k in range(ctx.lba.dim):
                step = ctx.apply_endo(data.i_images[g], vinv * ctx.gen(k) * v)
                morphism.append(data.i_images[gh][k] - ctx.apply_endo(data.i_images[h], step))
            out.append(("morphism composition", (g, h), morphism))
    for g in grp.elements():
        for h in grp.elements():
            for k in grp.elements():
                lhs = data.v[(grp.mul(g, h), k)] * data.v[(g, h)]
                translated = ctx.apply_endo(ctx.theta_images(g), data.v[(h, k)])
                rhs = data.v[(g, grp.mul(h, k))] * ctx.apply_endo(data.i_inverse_images(g), translated)
                out.append(("gauge cocycle", (g, h, k), [lhs - rhs]))
    data._relations = out
    return out


def _relation_messages(data: GammaQUEData) -> list[str]:
    """One message per relation entry with a nonzero residual, in order."""
    labels = data.ctx.G.group.labels
    return [
        f"{name} relation fails at ({','.join(labels[g] for g in tup)})"
        for name, tup, residuals in relation_residuals(data)
        if not all(r.is_zero() for r in residuals)
    ]


def _linear_tensor(ctx: QueContext, t: dict[tuple[int, int], Fraction]) -> HElement:
    """The 2-tensor sum c e_p (x) e_q of t at hbar^0."""
    return HElement(ctx, 2, {(0, ((p,), (q,))): c for (p, q), c in t.items()})


def validate_que_data(data: GammaQUEData) -> list[str]:
    """All load-time invariants: ambient coproduct axioms, leading terms,
    and the five compatibility relations, exactly at truncation."""
    ctx = data.ctx
    G = ctx.G
    grp = G.group
    issues: list[str] = []
    dim = ctx.lba.dim
    # coproduct respects the bracket relations
    for i, j in _bracket_failures(ctx, ctx.delta_images):
        issues.append(f"coproduct does not respect bracket at ({i},{j})")
    # coassociativity and counit on generators
    for i in range(dim):
        x = ctx.gen(i)
        if not coassociativity_residual(ctx, i).is_zero():
            issues.append(f"coproduct not coassociative at generator {i}")
        d = ctx.coproduct_slot(x, 0)
        if ctx.counit_slot(d, 0) != x or ctx.counit_slot(d, 1) != x:
            issues.append(f"counit axiom fails at generator {i}")
        # classical limits
        prim = HElement(ctx, 2, primitive_coeffs(i))
        if not (ctx.delta_images[i] - prim).hbar_coefficient(0).is_zero():
            issues.append(f"coproduct not cocommutative mod hbar at generator {i}")
        anti = (ctx.delta_images[i] - ctx.delta_images[i].flip()).hbar_coefficient(1)
        if anti != _linear_tensor(ctx, ctx.lba.cobracket_tensor(i)):
            issues.append(f"hbar^1 co-Poisson part wrong at generator {i}")
    # F leading terms and twist equations
    normalised = True
    for g in grp.elements():
        f = data.F[g]
        if not (f - ctx.unit(f.slots)).hbar_coefficient(0).is_zero():
            issues.append(f"F[{grp.labels[g]}] not in 1 + hbar U^2")
            normalised = False
        f1 = f.hbar_coefficient(1)
        alt = f1 - f1.flip()
        if alt != _linear_tensor(ctx, G.f[g]):
            issues.append(f"Alt of hbar^1 part of F[{grp.labels[g]}] != twist tensor")
        if not twist_residual_quantum(ctx, f).is_zero():
            issues.append(f"twist equation fails for F[{grp.labels[g]}]")
    # v normalization
    for (g, h), v in data.v.items():
        diff = v - ctx.unit(1)
        if any(a < 2 for (a, _sl) in diff.num):
            issues.append(f"v[{grp.labels[g]},{grp.labels[h]}] not in 1 + hbar^2 U")
            normalised = False
    # i maps are algebra morphisms with an invertible classical limit
    for g in grp.elements():
        for i, j in _bracket_failures(ctx, data.i_images[g]):
            issues.append(f"i[{grp.labels[g]}] not an algebra morphism at ({i},{j})")
        # a nonsingular linear part's order-by-order inversion can still
        # fail to close at truncation
        try:
            data.i_inverse_images(g)
        except SingularLinearPart:
            issues.append(f"i[{grp.labels[g]}] has a singular hbar^0 linear part")
            normalised = False
        except QuantumError:
            issues.append(f"i[{grp.labels[g]}] is not invertible at truncation")
            normalised = False
    # the checks below invert F, v and the i maps
    if not normalised:
        return issues
    # coproduct-conjugation identity: Delta(theta_g x) = Ad(F_g^{-1})
    # (theta_g^{(x)2} Delta(x)); required for the semidirect bialgebra axioms
    for g in grp.elements():
        for i in range(dim):
            if not conjugation_residual(ctx, ctx.theta_images(g), data.F[g], i).is_zero():
                issues.append(
                    f"coproduct conjugation identity fails at ({grp.labels[g]}, generator {i})"
                )
    issues += _relation_messages(data)
    return issues


def gauge_transform(data: GammaQUEData, b: dict[int, HElement]) -> GammaQUEData:
    """F' = b^{(x)2} F Delta(b^{-1}), i' = i o Ad(b^{-1}), v' per the
    composition-compatible formula; the output is re-validated.

    When every b_g is the unit the transform is the identity, and data
    itself is returned, checked by its own (cached) relation pass.
    """
    ctx = data.ctx
    grp = ctx.G.group
    unit = ctx.unit(1)
    if all(b[g] == unit for g in grp.elements()):
        out = data
    else:
        binv = {g: ctx.inverse(b[g]) for g in grp.elements()}
        newF = {g: gauge_twist(ctx, b[g], data.F[g]) for g in grp.elements()}
        new_i = {
            g: [
                ctx.apply_endo(data.i_images[g], binv[g] * ctx.gen(k) * b[g])
                for k in range(ctx.lba.dim)
            ]
            for g in grp.elements()
        }
        new_v = {}
        for (g, h), v in data.v.items():
            gh = grp.mul(g, h)
            translated = ctx.apply_endo(ctx.theta_images(g), binv[h])
            pulled = ctx.apply_endo(data.i_inverse_images(g), translated)
            new_v[(g, h)] = b[gh] * v * pulled * binv[g]
        out = GammaQUEData(ctx, newF, new_i, new_v)
    bad = _relation_messages(out)
    if bad:
        raise QuantumError(f"gauge transform broke the compatibility relations: {bad[0]}")
    return out


# -- semidirect bialgebra -----------------------------------------------------------------


class CrossedElement(HElement):
    """Element of the crossed product U(g)[[hbar]] x| Gamma: each slot of a
    key is (word, group element), shown as [word:label]."""

    __slots__ = ()

    @staticmethod
    def _degree(sl) -> int:
        return sum(len(w) for w, _ in sl)

    @staticmethod
    def _words(sl):
        return (w for w, _ in sl)

    def _term(self, key, labels: list[str] | None) -> str:
        a, sl = key
        glabels = self.ctx.G.group.labels
        body = "|".join(f"[{word_str(w, labels)}:{glabels[g]}]" for w, g in sl)
        return f"h^{a} {body}" if a else body


class SemidirectBialgebra:
    """S(g) (x) k Gamma [[hbar]] with the twisted product and coproduct.

    A basis product [w1|g1][w2|g2] is the plain w1 i_{e,g1}^{-1}(theta_g1(w2))
    v_{e,g1,g1g2}^{-1} labelled g1g2, and a basis coproduct Delta[w|g] is the
    plain Delta_e(w) F_{e,g}^{-1} labelled g, g.  The constructor numbers
    these inputs by value, once (so F, v and the i maps must be invertible,
    as `validate_que_data` checks), and one memo of plain hbar^0 tables is
    kept per class of labels with equal ids: keyed (w1, w2) per
    (conjugation id, v^{-1} id), and w per F^{-1} id.  A table is shifted by
    the hbar powers of the terms it is applied to (`spread` says why that is
    exact).  `axiom_report` reads the class tables as they are; `product`
    (slotwise, in `_slot_product`) and `_cop_slot` (Delta at one slot,
    through `spread`; `coproduct` is its one-slot case) read them
    relabelled, and take `CrossedElement`s of this algebra's context only.
    Unlike `QueContext.mul`, `product` never skips a unit factor: the unit
    axiom for [1|e] is one of the checks of `axiom_report`.
    """

    def __init__(self, data: GammaQUEData):
        self.data = data
        self.ctx = ctx = data.ctx
        self.G = ctx.G
        labels = list(self.G.group.elements())
        # what the tables read of their labels, numbered by value; an id
        # indexes its value in _inputs
        self._inputs: list = []
        number = partial(_intern, {}, self._inputs)
        self._conj_ids = {g: number((tuple(ctx.theta_images(g)), tuple(data.i_inverse_images(g)))) for g in labels}
        self._vinv_ids = {(g, h): number(ctx.inverse(data.v[(g, h)])) for g in labels for h in labels}
        self._finv_ids = {g: number(ctx.inverse(data.F[g])) for g in labels}
        # the plain tables of each class, and i_{e,g}^{-1}(theta_g(w)) per
        # (w, conjugation id): the right factor of a plain product
        self._class_products: dict[tuple[int, int], dict[tuple[Word, Word], Table]] = {}
        self._class_coproducts: dict[int, dict[Word, Table]] = {}
        self._conj: dict[tuple[Word, int], HElement] = {}
        # the labelled tables of `product` and `_cop_slot`
        self._products: dict[tuple, Table] = {}
        self._coproducts: dict[tuple[Word, int], Table] = {}

    def _product_tables(self, g1: int, g2: int):
        """The memo of the class of (g1, g2) and the builder that fills it."""
        key = self._conj_ids[g1], self._vinv_ids[(g1, g2)]
        memo = self._class_products.setdefault(key, {})
        return memo, partial(self._plain_product, memo, *key)

    def _plain_product(self, memo: dict, c: int, v: int, w1: Word, w2: Word) -> Table:
        """hbar^0 table of w1 * i^{-1}(theta(w2)) * v^{-1}, the conjugation of
        id c and the v^{-1} of id v, stored in memo.  The association stays
        as written, since the cap D cuts a reassociated product differently."""
        ctx = self.ctx
        conj = self._conj.get((w2, c))
        if conj is None:
            conj = HElement._trusted(ctx, 1, {(0, (w2,)): 1})
            for images in self._inputs[c]:
                conj = ctx.apply_endo(images, conj)
            self._conj[(w2, c)] = conj
        val = HElement._trusted(ctx, 1, {(0, (w1,)): 1}) * conj * self._inputs[v]
        table = memo[(w1, w2)] = val._as_table()
        return table

    def _coproduct_table(self, g: int):
        """w -> hbar^0 table of Delta_e(w) * F_{e,g}^{-1}, from the memo of the
        class of g."""
        f = self._finv_ids[g]
        memo = self._class_coproducts.setdefault(f, {})

        def table(w: Word) -> Table:
            out = memo.get(w)
            if out is None:
                plain = HElement._trusted(self.ctx, 1, {(0, (w,)): 1})
                out = memo[w] = (self.ctx.coproduct_slot(plain, 0) * self._inputs[f])._as_table()
            return out

        return table

    def _basis_product(self, s1: tuple[Word, int], s2: tuple[Word, int]) -> Table:
        """The class table of (w1, w2) labelled g1g2, stored in `_products`."""
        (w1, g1), (w2, g2) = s1, s2
        memo, build = self._product_tables(g1, g2)
        table = memo.get((w1, w2)) or build(w1, w2)
        table = self._products[(s1, s2)] = _labelled(table, self.G.group.mul(g1, g2))
        return table

    def _basis_coproduct(self, s: tuple[Word, int]) -> Table:
        """The class table of w labelled g, g for s = (w, g), stored in
        `_coproducts`."""
        table = self._coproducts.get(s)
        if table is None:
            w, g = s
            table = self._coproducts[s] = _labelled(self._coproduct_table(g)(w), g)
        return table

    def product(self, x: CrossedElement, y: CrossedElement) -> CrossedElement:
        """[m|g][m'|g'] = [m * i_{e,g}^{-1}(theta_g(m')) * v_{e,g,gg'}^{-1} | gg'],
        slot by slot on elements of any slot count."""
        if x.__class__ is not CrossedElement or y.__class__ is not CrossedElement:
            raise ValueError("the semidirect product needs labeled elements")
        x._check(y)
        if x.ctx is not self.ctx:
            raise ValueError("incompatible elements")
        return _slot_product(x, y, self._products, self._basis_product)

    def coproduct(self, x: CrossedElement) -> CrossedElement:
        """[m|g] -> [Delta_e(m) * F_{e,g}^{-1} | g,g]."""
        return self._cop_slot(x, 0)

    def unit(self) -> CrossedElement:
        return self.ctx.labeled((), self.G.group.identity)

    def counit(self, x: CrossedElement) -> Fraction:
        e = self.G.group.identity
        return F(x.num.get((0, (((), e),)), 0), x.den)

    def axiom_report(self, degree: int = 1) -> list[str]:
        """Associativity, coassociativity, compatibility on all labeled PBW
        monomials of degree <= `degree`, exactly at truncation.

        Every value of the sweep carries one label on all its slots, the one
        the grading gives (g1g2 for a product, g for Delta), so it is held as
        the index of a pair (label, plain `HElement`): equal pairs are equal
        values.  A zero value keeps the label of the grading too, which is
        the same on both sides of every check.  A product is the plain
        `_slot_product` with the class tables of its label pair, and Delta at
        a slot the plain `spread` with those of its label; each is evaluated
        once per class (the sl2 D=6 sweep: 273 plain product tables, not
        1,764 labelled ones).  The basis coproducts, the distinct products ab
        and their coproducts are each looked up once, and (ab)c and a(bc) are
        compared as two indices.
        """
        ctx, grp = self.ctx, self.G.group
        words = [w for d in range(degree + 1) for w in sorted_words(ctx.lba.dim, d)]
        slots = [(w, g) for w in words for g in grp.elements()]
        index: dict[tuple[int, HElement], int] = {}
        values: list[tuple[int, HElement]] = []
        plains: dict[HElement, HElement] = {}
        products: dict[tuple, HElement] = {}
        coproducts: dict[tuple, HElement] = {}

        def plain(x: HElement) -> HElement:
            # one object per plain value, so the memo keys compare by identity
            return plains.setdefault(x, x)

        def value(g: int, x: HElement) -> int:
            return _intern(index, values, (g, x))

        def product(i: int, j: int) -> int:
            (g, x), (h, y) = values[i], values[j]
            key = (x, y, self._conj_ids[g], self._vinv_ids[(g, h)])
            p = products.get(key)
            if p is None:
                p = products[key] = plain(_slot_product(x, y, *self._product_tables(g, h)))
            return value(grp.mul(g, h), p)

        def coproduct(i: int, idx: int = 0) -> int:
            g, x = values[i]
            key = (x, self._finv_ids[g], idx)
            p = coproducts.get(key)
            if p is None:
                terms = _slot_terms(x, idx, self._coproduct_table(g))
                p = coproducts[key] = plain(HElement.spread(ctx, x.slots + 1, terms))
            return value(g, p)

        basis = [ctx.labeled(*s) for s in slots]
        base = [value(g, plain(HElement._trusted(ctx, 1, {(0, (w,)): 1}))) for w, g in slots]
        cop = [coproduct(a) for a in base]
        prod = [[product(a, b) for b in base] for a in base]
        distinct = sorted({x for row in prod for x in row})
        right = {x: [product(x, c) for c in base] for x in distinct}
        cop_prod = {x: coproduct(x) for x in distinct}
        u = value(grp.identity, plain(ctx.unit(1)))
        issues = []
        for i, a in enumerate(basis):
            left = {y: product(base[i], y) for y in distinct}
            for j, b in enumerate(basis):
                x = prod[i][j]
                if cop_prod[x] != product(cop[i], cop[j]):
                    issues.append(f"bialgebra compatibility fails at {a.format()},{b.format()}")
                for k, c in enumerate(basis):
                    if right[x][k] != left[prod[j][k]]:
                        issues.append(
                            f"associativity fails at {a.format()},{b.format()},{c.format()}"
                        )
            if coproduct(cop[i], 0) != coproduct(cop[i], 1):
                issues.append(f"coassociativity fails at {a.format()}")
            # the graded counit [x|g] -> delta_{g,e} eps(x) collapses Delta
            # back to the identity only on the identity component, so no
            # counit-collapse axiom is imposed here
            if product(u, base[i]) != base[i] or product(base[i], u) != base[i]:
                issues.append(f"unit axiom fails at {a.format()}")
        return issues

    def _cop_slot(self, x: CrossedElement, idx: int) -> CrossedElement:
        if x.__class__ is not CrossedElement:
            raise ValueError("the semidirect coproduct needs labeled elements")
        if x.ctx is not self.ctx:
            raise ValueError("incompatible elements")
        return CrossedElement.spread(self.ctx, x.slots + 1, _slot_terms(x, idx, self._basis_coproduct))


def _labelled(table: Table, g: int) -> Table:
    """A plain table with every output slot labelled g."""
    den, entries = table
    return den, tuple((a, tuple((w, g) for w in sl), n, e) for a, sl, n, e in entries)


def _intern(index: dict, items: list, x) -> int:
    """The index of x in items, appended on first sight; index maps each
    item to its index."""
    i = index.setdefault(x, len(items))
    if i == len(items):
        items.append(x)
    return i


def build_semidirect(data: GammaQUEData, check_degree: int = 1) -> tuple[SemidirectBialgebra, list[str]]:
    alg = SemidirectBialgebra(data)
    return alg, alg.axiom_report(check_degree)


def classical_limit_residuals(data: GammaQUEData) -> list[str]:
    """(Delta - Delta^op)/hbar at hbar = 0 against the co-Poisson envelope,
    on generators [e_i|e] and group elements [1|g], plus the grading support
    condition Delta(U_g) in U_g (x) U_g."""
    ctx = data.ctx
    G = ctx.G
    grp = G.group
    alg = SemidirectBialgebra(data)
    issues = []
    tests: list[tuple[Word, int]] = [((i,), grp.identity) for i in range(ctx.lba.dim)]
    tests += [((), g) for g in grp.elements()]
    for word, g in tests:
        x = ctx.labeled(word, g)
        d = alg.coproduct(x)
        for _a, sl in d.num:
            if any(gg != g for _w, gg in sl):
                issues.append(f"grading support violated at [{word}|{grp.labels[g]}]")
                break
        anti = (d - d.flip()).hbar_coefficient(1)
        got = {sl: c for (_a, sl), c in anti.coeffs.items()}
        expect = copoisson_envelope(G, word, g)
        if got != expect:
            issues.append(
                f"classical limit mismatch at [{'.'.join(map(str, word))}|{grp.labels[g]}]"
            )
    return issues


# -- quantum certificate --------------------------------------------------------------------


class QuantumStackCertificate:
    def __init__(self, group: list[str], hbar_order: int, pbw_degree: int):
        self.group = group
        self.hbar_order = hbar_order
        self.pbw_degree = pbw_degree
        self.gauges: dict[int, HElement] = {}
        self.data_prime: GammaQUEData | None = None
        self.residuals: list[dict] = []
        self.admissibility: list[dict] = []
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and all(r["residual"] == "0" for r in self.residuals)
            and all(a["admissible"] for a in self.admissibility)
        )

    def to_json_dict(self, labels: list[str]) -> dict:
        transformed: dict = {}
        if self.data_prime is not None:
            transformed = {
                "twists": {
                    self.group[g]: f.format(labels)
                    for g, f in sorted(self.data_prime.F.items())
                },
                "morphism_images": {
                    self.group[g]: [img.format(labels) for img in imgs]
                    for g, imgs in sorted(self.data_prime.i_images.items())
                },
                "gauges": {
                    f"{self.group[g]},{self.group[h]}": v.format(labels)
                    for (g, h), v in sorted(self.data_prime.v.items())
                },
            }
        return {
            "schema_version": 1,
            "kind": "quantum_stack_certificate",
            "group": list(self.group),
            "hbar_order": self.hbar_order,
            "pbw_degree": self.pbw_degree,
            "valid": self.ok,
            "gauge_elements": {
                self.group[g]: b.format(labels) for g, b in sorted(self.gauges.items())
            },
            "transformed_data": transformed,
            "residuals": self.residuals,
            "admissibility": self.admissibility,
            "failures": list(self.failures),
        }

    def to_json(self, labels: list[str]) -> str:
        return json.dumps(self.to_json_dict(labels), sort_keys=True, indent=2) + "\n"


def quantize_stack(data: GammaQUEData) -> QuantumStackCertificate:
    """Admissibilize every twist, transport i and v, check admissibility of
    the transported v, and verify both stack identities on all tuples."""
    ctx = data.ctx
    grp = ctx.G.group
    labels = ctx.lba.labels
    cert = QuantumStackCertificate(list(grp.labels), ctx.M, ctx.D)
    bad = validate_que_data(data)
    if bad:
        cert.failures = [f"input validation: {m}" for m in bad]
        return cert
    try:
        b = {g: admissibilize(ctx, data.F[g])[0] for g in grp.elements()}
        data_p = gauge_transform(data, b)
    except QuantumError as exc:
        cert.failures = [str(exc)]
        return cert
    cert.gauges = b
    cert.data_prime = data_p
    named = [(f"F'[{grp.labels[g]}]", data_p.F[g]) for g in grp.elements()]
    named += [(f"v'[{grp.labels[g]},{grp.labels[h]}]", v) for (g, h), v in sorted(data_p.v.items())]
    for name, x in named:
        ok, witness = is_admissible(x)
        cert.admissibility.append({"element": name, "admissible": ok, "witness": str(witness or "")})
    # both stack identities on all tuples, read from the relation pass that
    # gauge_transform made on data_p: (4) is summed over generators, and
    # exp(v'/hbar) cocycle's exponentials are the v' themselves viewed in the
    # Drinfeld subalgebra, so its residual is that of relation (5).  Neither
    # depends on the first entry g0 (left translation to base e).
    identities = {"morphism composition": "morphism-composition", "gauge cocycle": "exp-gauge-cocycle"}
    found: dict[str, list[tuple[tuple[int, ...], str]]] = {name: [] for name in identities}
    for name, tup, residuals in relation_residuals(data_p):
        if name in found:
            diff = sum(residuals, ctx.zero(1))
            found[name].append((tup, "0" if diff.is_zero() else diff.format(labels)))
    for name, identity in identities.items():
        for g0 in grp.elements():
            for tup, res in found[name]:
                cert.residuals.append(
                    {"identity": identity, "at": [grp.labels[x] for x in (g0, *tup)], "residual": res}
                )
    return cert
