"""Truncated function algebra of the dual formal group.

The commutative algebra is the truncated symmetric algebra S(g); the
gamma-dependent coproduct and Poisson bracket are computed by duality
against the enveloping algebra of the dual Lie algebra g*_gamma (bracket =
transpose of the deformed cobracket), through the symmetrization pairing
<x_1...x_m, xi_1...xi_n> = delta_{mn} perm(<x_i, xi_j>).

BCH star products come in two independent implementations: the
Lyndon-basis kernel (log of exp-product in the free associative algebra,
rewritten in the Lyndon basis of the free Lie algebra, after Casas & Murua
2009) and the integral-recursion kernel with Bernoulli numbers.  They are
cross-checked in the tests and used on opposite sides of
construction-vs-verification.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import product, takewhile
from math import comb, factorial, gcd, lcm

from gammastack.liealg import GammaLieBialgebra, LieBialgebra, Tensor2, delta_gamma_tensor
from gammastack.tensors import (
    Monomial,
    SparseTensor,
    TensorSeries,
    _add_into,
    common_den,
    coproduct_slot,
    monomial_degree,
    multiset_factor,
    nums_over_lcm,
    sorted_words,
)

Word = tuple[int, ...]
# {u, v} on packed PBW words as {(u << W) | v: ((w, numerator), ...)}
BracketTable = dict[int, tuple[tuple[int, int], ...]]


class Packing:
    """The packed-monomial tables of one slot count n (`poisson`)."""

    __slots__ = ("pack", "unpack", "memo", "intern")

    def __init__(self):
        self.pack: dict[Monomial, tuple[int, int]] = {}  # monomial -> (code, degree)
        self.unpack: dict[int, tuple[Monomial, int]] = {}  # code -> (monomial, degree)
        self.memo: dict[int, tuple[int, ...]] = {}  # (p1 << n W) | p2 -> (k1, c1, k2, c2, ...)
        self.intern: dict[int, int] = {}  # code -> its one int object


def build_delta_gamma(G: GammaLieBialgebra, gamma: int) -> LieBialgebra:
    """Lie bialgebra (g, mu, delta_gamma) with the f_gamma-deformed cobracket.

    delta_gamma(x) = delta(x) + [f_gamma, x (x) 1 + 1 (x) x].  Raises if the
    result fails co-Jacobi or the cocycle condition, which signals an
    invalid input (the upstream validator should have caught it).
    """
    cob: dict[tuple[int, int, int], Fraction] = {}
    for k in range(G.lba.dim):
        for (i, j), c in delta_gamma_tensor(G, gamma, k).items():
            if c:
                cob[(k, i, j)] = c
    out = LieBialgebra(G.lba.dim, G.lba.labels, G.lba.bracket, cob)
    bad = [i for i in out.validate() if i.condition in ("co-jacobi", "cocycle")]
    if bad:
        raise ValueError(
            f"deformed cobracket at {G.group.labels[gamma]} is not a Lie cobracket: {bad[0]}"
        )
    return out


# -- free-associative BCH word series and its Lyndon basis --------------------


def _free_mul(p: dict[Word, Fraction], q: dict[Word, Fraction], nmax: int) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            if len(w1) + len(w2) > nmax:
                continue
            _add_into(out, w1 + w2, c1 * c2)
    return out


@cache
def bch_word_terms(nmax: int) -> list[tuple[Fraction, Word]]:
    """Coefficients of log(exp(x) exp(y)) in the free associative algebra.

    Each word over {0, 1} of length n contributes coeff/n times its
    right-nested bracketing (the Dynkin projection); `bch_lyndon_terms`
    rewrites the series in the Lyndon basis.  Cached and shared by every
    caller, who only reads it.
    """
    ex = {tuple([0] * k): Fraction(1, factorial(k)) for k in range(nmax + 1)}
    ey = {tuple([1] * k): Fraction(1, factorial(k)) for k in range(nmax + 1)}
    s = _free_mul(ex, ey, nmax)
    s.pop((), None)  # s = exp(x)exp(y) - 1, min degree 1
    log: dict[Word, Fraction] = {}
    power: dict[Word, Fraction] = {(): Fraction(1)}
    for k in range(1, nmax + 1):
        power = _free_mul(power, s, nmax)
        sign = Fraction((-1) ** (k + 1), k)
        for w, c in power.items():
            _add_into(log, w, sign * c)
    return sorted(((c, w) for w, c in log.items()), key=lambda t: (len(t[1]), t[1]))


def _is_lyndon(word: Word) -> bool:
    """A word is Lyndon iff it is strictly smaller than each proper suffix."""
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(nmax: int) -> list[Word]:
    """Lyndon words over {0 < 1} of length 1..nmax, length-then-lex order."""
    return [
        w for n in range(1, nmax + 1) for w in product((0, 1), repeat=n) if _is_lyndon(w)
    ]


def standard_factorisation(word: Word) -> tuple[Word, Word]:
    """word = uv with v its longest proper Lyndon suffix (u is then Lyndon)."""
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"{word} has no proper Lyndon suffix")


LyndonTable = tuple[list[tuple[Fraction, Word]], dict[Word, tuple[Word, Word]]]


@cache
def bch_lyndon_terms(nmax: int) -> LyndonTable:
    """log(exp(x) exp(y)) = sum c_w [w] over Lyndon words w of length <= nmax.

    [a] = a for a letter and [w] = [[u], [v]] for the standard factorisation
    w = uv.  Returns the nonzero (c_w, w) in length-then-lex order and the
    factorisation of every Lyndon word of length 2..nmax.  The table is
    derived from `bch_word_terms`: in the free associative algebra [w] is w
    plus lexicographically larger words of the same length, so taking the
    Lyndon words in length-then-lex order, c_w is the coefficient of w left
    after subtracting the expansions of the earlier terms.  Cached like
    `bch_word_terms`.
    """

    def comm(p: dict[Word, Fraction], q: dict[Word, Fraction]) -> dict[Word, Fraction]:
        out = _free_mul(p, q, nmax)
        for w, c in _free_mul(q, p, nmax).items():
            _add_into(out, w, -c)
        return out

    rest = {w: c for c, w in bch_word_terms(nmax)}
    expansion: dict[Word, dict[Word, Fraction]] = {}
    factors: dict[Word, tuple[Word, Word]] = {}
    terms: list[tuple[Fraction, Word]] = []
    for w in lyndon_words(nmax):
        if len(w) == 1:
            expansion[w] = {w: Fraction(1)}
        else:
            u, v = factors[w] = standard_factorisation(w)
            expansion[w] = comm(expansion[u], expansion[v])
        c = rest.get(w)
        if c:
            terms.append((c, w))
            for w2, c2 in expansion[w].items():
                _add_into(rest, w2, -c * c2)
    if rest:
        raise AssertionError("BCH series is not spanned by the Lyndon basis")
    return terms, factors


def bch_apply(bracket_fn, f, g, nmax: int):
    """Evaluate the BCH series in the Lyndon basis with a given Lie bracket.

    bracket_fn(a, b) must return the bracket; f and g must support + and
    .scale(); Lyndon words of length > nmax are dropped (their values vanish
    under the intended filtration).  Each [w] is bracketed once, and only
    when a nonzero term needs it.
    """
    return _bch_sum(bracket_fn, f, g, *bch_lyndon_terms(nmax))


def _bch_sum(bracket_fn, f, g, terms, factors):
    """sum c_w [w] over `terms`, the (c_w, w) of a prefix of a
    `bch_lyndon_terms` table, with the table's `factors`."""
    values: dict[Word, object] = {(0,): f, (1,): g}

    def lie(word: Word):
        val = values.get(word)
        if val is None:
            u, v = factors[word]
            val = values[word] = bracket_fn(lie(u), lie(v))
        return val

    result = None
    for coeff, word in terms:
        term = lie(word).scale(coeff)
        result = term if result is None else result + term
    return result


# -- Bernoulli-number recursion (independent BCH implementation) --------------

@cache
def bernoulli(n: int) -> Fraction:
    """Bernoulli numbers, B_1 = -1/2 convention: B_0 = 1 and
    sum_{k<=n} C(n+1, k) B_k = 0."""
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1) if n else Fraction(1)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def bch_apply_recursion(bracket_fn, x, y, nmax: int):
    """BCH via the classical integral recursion.

    z_1 = x + y and (n+1) z_{n+1} = 1/2 [x - y, z_n]
    + sum_{p>=1, 2p<=n} B_{2p}/(2p)! sum_{k_1+...+k_{2p}=n}
      [z_{k_1}, [..., [z_{k_{2p}}, x + y]...]].
    The nested bracket of each composition suffix (k_j, ..., k_{2p}) is
    evaluated once and shared by every composition that ends in it.

    Two sets of terms vanish by antisymmetry alone and are not evaluated:
    the step n = 1 is 1/2 [x - y, x + y] = [x, y], so z_2 = 1/2 [x, y] is
    one bracket of x and y; and a composition whose last part is 1 nests
    [z_1, x + y] = [x + y, x + y] = 0.  So bracket_fn must be
    antisymmetric; `PairingContext` checks that of its bracket table
    exactly when it builds it.
    """
    xy = x + y
    z = [None, xy]
    if nmax > 1:
        z.append(bracket_fn(x, y).scale(Fraction(1, 2)))
    nested: dict[tuple[int, ...], object] = {(): xy}

    def nest(ks: tuple[int, ...]):
        val = nested.get(ks)
        if val is None:
            val = nested[ks] = bracket_fn(z[ks[0]], nest(ks[1:]))
        return val

    for n in range(2, nmax):
        acc = bracket_fn(x + y.scale(-1), z[n]).scale(Fraction(1, 2))
        for p in range(1, n // 2 + 1):
            coeff = bernoulli(2 * p) / factorial(2 * p)
            for ks in _compositions(n, 2 * p):
                if ks[-1] > 1:
                    acc = acc + nest(ks).scale(coeff)
        z.append(acc.scale(Fraction(1, n + 1)))
    total = z[1]
    for n in range(2, nmax + 1):
        total = total + z[n]
    return total


# -- cocommutative splitting (the undeformed coproduct of a word) -------------


@cache
def cocommutative_splits(word: Word) -> dict[tuple[Word, Word], int]:
    """Two-block multiset splittings of a sorted word, with multinomial counts.

    Cached and shared by every caller, who only reads it.
    """
    out: dict[tuple[Word, Word], int] = {((), ()): 1}
    for letter in word:
        nxt: dict[tuple[Word, Word], int] = {}
        for (a, b), m in out.items():
            key1 = (tuple(sorted(a + (letter,))), b)
            nxt[key1] = nxt.get(key1, 0) + m
            key2 = (a, tuple(sorted(b + (letter,))))
            nxt[key2] = nxt.get(key2, 0) + m
        out = nxt
    return out


# -- the pairing context -------------------------------------------------------


def _table_lcm(table: dict) -> int:
    """The lcm of the denominators d of rows {key: (n, d)}."""
    return lcm(*(d for row in table.values() for _, d in row.values()))


class PairingContext:
    """Cached duality data for one deformed cobracket at one truncation.

    Provides the coproduct (at any one slot), the Poisson bracket and BCH
    star products on truncated tensor series.  Immutable after construction.

    The cobracket must satisfy co-Jacobi: that is what makes U(g*_gamma),
    and so the coproduct, associative.  `build_delta_gamma` checks it
    exactly, and every context the program builds takes its output.
    """

    def __init__(self, lba_gamma: LieBialgebra, trunc: int):
        self.lba = lba_gamma
        self.dim = lba_gamma.dim
        self.trunc = trunc
        # U(g*_gamma): the bracket of g*_gamma is the transposed cobracket
        dual = lba_gamma.dual()
        self._pbw: list[Word] = [w for d in range(trunc + 1) for w in sorted_words(self.dim, d)]
        # each straightened word as a `nums_over_lcm` pair, and each PBW
        # word's `multiset_factor`, shared by the two builds
        straighten = cache(lambda word: nums_over_lcm(dual.straighten(word)))
        factor = {w: multiset_factor(w) for w in self._pbw}
        # Delta_gamma of each word as int numerators over _coproduct_den
        self._coproduct_den, self._coproduct_table = self._build_coproduct_table(straighten, factor)
        # packed exponent vectors (`poisson`): the exponent of generator i
        # in slot s fills `bits` bits at offset s * _slot_bits + i * bits;
        # each PBW word's code, and each code's word and degree
        bits = (2 * trunc + 2).bit_length()
        self._slot_bits = self.dim * bits
        self._word_codes: dict[Word, int] = {w: sum(1 << i * bits for i in w) for w in self._pbw}
        self._code_words: dict[int, Word] = {c: w for w, c in self._word_codes.items()}
        self._word_degree: dict[int, int] = {c: len(w) for c, w in self._code_words.items()}
        # the 1-slot brackets on packed words, numerators over _bracket_lcm
        self._bracket_lcm, self._bracket_table = self._build_bracket_table(dual, straighten, factor)
        self._check_antisymmetric()
        # per slot count: its pack, unpack, pair-bracket memo and intern tables
        self._packings: dict[int, Packing] = {}

    # -- coproduct -------------------------------------------------------------

    def _build_coproduct_table(
        self, straighten, factor: dict[Word, int]
    ) -> tuple[int, dict[Word, dict[tuple[Word, Word], int]]]:
        """The lcm L of the coproduct's denominators and Delta_gamma of every
        PBW word as {(left word, right word): numerator over L}."""
        table: dict[Word, dict[tuple[Word, Word], tuple[int, int]]] = {}
        for b1 in self._pbw:
            for b2 in self._pbw:
                if len(b1) + len(b2) > self.trunc:
                    continue
                num, den = straighten(b1 + b2)
                den *= factor[b1] * factor[b2]
                # each (b1, b2) meets each word of its product once
                for w, c in num.items():
                    n = c * factor[w]
                    g = gcd(n, den)
                    table.setdefault(w, {})[(b1, b2)] = (n // g, den // g)
        L = _table_lcm(table)
        return L, {k: {k2: n * (L // d) for k2, (n, d) in row.items()} for k, row in table.items()}

    # -- Poisson bracket: the transposed co-Poisson cobracket of U(g*_gamma) ---

    def _build_bracket_table(
        self, dual: LieBialgebra, straighten, factor: dict[Word, int]
    ) -> tuple[int, BracketTable]:
        """delta_U of every PBW word, transposed into the 1-slot brackets.

        delta_U is the coderivation extending the cobracket of g*_gamma (the
        transposed bracket of g): delta(uv) = delta(u) Delta(v) + Delta(u)
        delta(v) with v the last letter.  The head u is shorter, so in
        `_pbw` order it is always done first, and each pair's words come in
        `_pbw` order.  Each delta is summed in int over a running common
        denominator (`common_den`).  Returns the lcm L of the bracket's
        denominators and the table {(u << _slot_bits) | v: ((w, numerator
        over L), ...)} of the brackets {a, b} = sum c w, each word packed.
        """
        codes, width = self._word_codes, self._slot_bits
        deltas: dict[Word, tuple[dict[tuple[Word, Word], int], int]] = {}
        table: dict[int, dict[int, tuple[int, int]]] = {}
        for word in self._pbw[1:]:  # the empty word has delta 0
            cob = dual.cobracket_tensor(word[-1])
            dv, dv_den = nums_over_lcm({((a,), (b,)): c for (a, b), c in cob.items()})
            if len(word) == 1:
                delta, den = dv, dv_den
            else:
                head, tail = word[:-1], (word[-1],)
                head_delta, head_den = deltas[head]
                # (coefficient numerator, its denominator, left word, right word)
                terms = [
                    (c, head_den, p + s, q + t)
                    for (p, q), c in head_delta.items()
                    for s, t in ((tail, ()), ((), tail))
                ]
                terms += [
                    (m * c, dv_den, s + p, t + q)
                    for (s, t), m in cocommutative_splits(head).items()
                    for (p, q), c in dv.items()
                ]
                delta, den = {}, 1
                for c, d, left, right in terms:
                    n1, d1 = straighten(left)
                    n2, d2 = straighten(right)
                    d *= d1 * d2
                    den = common_den(delta, den, d)
                    c *= den // d
                    for w1, c1 in n1.items():
                        for w2, c2 in n2.items():
                            _add_into(delta, (w1, w2), c * c1 * c2)
            deltas[word] = (delta, den)
            den *= factor[word]
            for (a, b), c in delta.items():
                if c:
                    n = c * factor[a] * factor[b]
                    g = gcd(n, den)
                    key = (codes[a] << width) | codes[b]
                    table.setdefault(key, {})[codes[word]] = (n // g, den // g)
        L = _table_lcm(table)
        return L, {
            k: tuple((w, n * (L // d)) for w, (n, d) in row.items()) for k, row in table.items()
        }

    def _check_antisymmetric(self):
        """Raise ValueError unless {v, u} = -{u, v} entry by entry in the
        bracket table: the row of (v, u) is the row of (u, v) negated, and
        no (u, u) is stored.  `bch_apply_recursion` skips the brackets that
        vanish by this alone."""
        table, width, words = self._bracket_table, self._slot_bits, self._code_words
        mask = (1 << width) - 1
        for key, row in table.items():
            u, v = key >> width, key & mask
            if u == v or table.get((v << width) | u) != tuple((w, -n) for w, n in row):
                raise ValueError(
                    f"the bracket table is not antisymmetric at the words {words[u]}, {words[v]}"
                )

    # -- series-level operations ------------------------------------------------

    def series(self, coeffs: dict[Monomial, Fraction], slots: int = 1) -> TensorSeries:
        return SparseTensor(slots, self.trunc, coeffs)

    def zero(self, slots: int = 1) -> TensorSeries:
        return SparseTensor.zero(slots, self.trunc)

    def coproduct(self, a: TensorSeries) -> TensorSeries:
        """Delta_gamma on a 1-slot series, yielding a 2-slot series."""
        if a.slots != 1:
            raise ValueError(f"coproduct needs a 1-slot series, got {a.slots} slots")
        return self.coproduct_slot(a, 0)

    def coproduct_slot(self, a: TensorSeries, idx: int, cut: int | None = None) -> TensorSeries:
        """Delta_gamma applied to slot idx of a, the identity elsewhere:
        a^{1,..,(idx+1 idx+2),..,n+1}; with a cut, exactly its terms of
        degree at most cut (`tensors.coproduct_slot`)."""
        table = self._coproduct_table
        return coproduct_slot(
            a, idx, lambda w: table.get(w, {}), self.trunc, self._coproduct_den, cut
        )

    def poisson(self, a: TensorSeries, b: TensorSeries, cut: int | None = None) -> TensorSeries:
        """Product-Poisson bracket on n-slot series, to degree cut.

        The cut defaults to trunc, and one above trunc is trunc.  A monomial
        pair whose degrees sum to more than cut + 1 is never visited: a
        1-slot bracket {a, b} only holds words of length at least
        len(a) + len(b) - 1, so the pair has no term within the cut.
        `within[r]` holds the terms of b of degree at most r, in b's order,
        built once per call for each r that a term of a needs, and a term
        m1 of a runs over within[cut + 1 - deg(m1)] alone.

        Inside the kernel a monomial is one int, its packed exponent vector
        (Monagan and Pearce, CASC 2007): the exponent of generator i in
        slot s fills b = (2 trunc + 2).bit_length() bits at offset
        (s dim + i) b, so slot s is (p >> s W) & mask with W = dim b.  The
        slotwise commutative product of two monomials is int addition, and
        no field carries: each exponent of a product of two monomials of
        degree <= trunc is at most 2 trunc.  The operands are packed on
        entry through the slot count's table monomial -> (code, degree),
        and the result is unpacked on exit through its table code ->
        (monomial, degree), which the cut reads; so equal monomials of the
        results are one tuple.  Each pair's bracket is memoised under the
        one int (p1 << n W) | p2, one memo per slot count since codes of
        different slot counts collide (`_pair_bracket`).

        The sum runs in int, over the denominators of a and b times
        _bracket_lcm: each memoised pair bracket holds its numerators over
        _bracket_lcm, to degree trunc whatever the cut.  A term that
        cancels is dropped and re-added at the end if it comes back, as
        `_add_into` does.  Under a cut below trunc the terms above it are
        dropped at the end.  Every pair with a term of degree <= cut is
        still visited, in the same order, so the result is exactly the
        degree-<=cut part of the full bracket, term order included, and
        keeps trunc as its space.  A zero operand gives the zero series at
        once: nothing is packed and no pair is memoised.
        """
        if a.slots != b.slots:
            raise ValueError("slot mismatch in poisson bracket")
        n = a.slots
        if not (a.num and b.num):
            return self.zero(n)
        top = self.trunc if cut is None else min(cut, self.trunc)
        packing = self._packing(n)
        pack, unpack, memo = packing.pack, packing.unpack, packing.memo
        shift = n * self._slot_bits

        def packed(s: TensorSeries) -> list[tuple[int, int, int]]:
            out = []
            for m, v in s.num.items():
                entry = pack.get(m)
                if entry is None:
                    entry = self._pack(packing, m)
                out.append((*entry, v))
            return out

        b_terms = packed(b)
        within: dict[int, list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        get = out.get
        for p1, d1, n1 in packed(a):
            room = top + 1 - d1
            terms = within.get(room)
            if terms is None:
                terms = within[room] = [(p2, n2) for p2, d2, n2 in b_terms if d2 <= room]
            high = p1 << shift
            for p2, n2 in terms:
                cached = memo.get(high | p2)
                if cached is None:
                    cached = memo[high | p2] = self._pair_bracket(packing, p1, p2, n)
                if cached:
                    c = n1 * n2
                    it = iter(cached)
                    for k, ck in zip(it, it):
                        v = get(k, 0) + c * ck
                        if v:
                            out[k] = v
                        else:
                            del out[k]
        num: dict[Monomial, int] = {}
        for k, v in out.items():
            entry = unpack.get(k)
            if entry is None:
                entry = self._unpack(packing, k, n)
            if entry[1] <= top:
                num[entry[0]] = v
        return SparseTensor._reduced(self.trunc, n, num, a.den * b.den * self._bracket_lcm)

    def _packing(self, n: int) -> Packing:
        """The tables of slot count n (`Packing`), made on first use."""
        packing = self._packings.get(n)
        if packing is None:
            packing = self._packings[n] = Packing()
        return packing

    def _pack(self, packing: Packing, mono: Monomial) -> tuple[int, int]:
        """(code, degree) of an n-slot monomial, entered in both tables."""
        codes, width = self._word_codes, self._slot_bits
        entry = (sum(codes[w] << s * width for s, w in enumerate(mono)), monomial_degree(mono))
        packing.pack[mono] = entry
        packing.unpack.setdefault(entry[0], (mono, entry[1]))
        return entry

    def _unpack(self, packing: Packing, code: int, n: int) -> tuple[Monomial, int]:
        """(monomial, degree) of an n-slot code, entered in both tables."""
        words, width = self._code_words, self._slot_bits
        mask = (1 << width) - 1
        mono = tuple(words[(code >> s * width) & mask] for s in range(n))
        entry = packing.unpack[code] = (mono, monomial_degree(mono))
        packing.pack[mono] = (code, entry[1])
        return entry

    def _pair_bracket(self, packing: Packing, p1: int, p2: int, n: int) -> tuple[int, ...]:
        """{m1, m2} on packed n-slot monomials as the flat tuple (k1, c1,
        k2, c2, ...) of codes and numerators over _bracket_lcm, each code
        the one object of the intern table; () when the bracket vanishes.

        It sums over slots s the 1-slot bracket {u, v} of the slot-s words
        times the product of the other slots: with total = p1 + p2, the
        rest is total - ((u + v) << s W), and each word w of {u, v} adds
        the term rest + (w << s W).  A slot whose rest, or a term whose
        degree, exceeds trunc is skipped.
        """
        degree, table, trunc = self._word_degree, self._bracket_table, self.trunc
        width = self._slot_bits
        mask = (1 << width) - 1
        slots, total_deg = [], 0
        for s in range(n):
            u, v = (p1 >> s * width) & mask, (p2 >> s * width) & mask
            d = degree[u] + degree[v]
            slots.append((u, v, d))
            total_deg += d
        total = p1 + p2
        out: dict[int, int] = {}
        for s, (u, v, d) in enumerate(slots):
            room = trunc - total_deg + d  # the degree left for the word of slot s
            if room < 0:
                continue
            rest = total - ((u + v) << s * width)
            for w, c in table.get((u << width) | v, ()):
                if degree[w] <= room:
                    _add_into(out, rest + (w << s * width), c)
        intern = packing.intern.setdefault
        flat: list[int] = []
        for k, c in out.items():
            flat += (intern(k, k), c)
        return tuple(flat)

    # -- BCH star products ------------------------------------------------------

    def _require_m2(self, s: TensorSeries, what: str):
        for m in s.num:
            if monomial_degree(m) < 2:
                raise ValueError(f"{what}: monomial {m} has degree < 2, not in m^2")

    # A bracket of n operands from m^2 has degree >= n + 1, so both star
    # products stop at brackets of trunc - 1 operands: longer ones vanish.

    def bch_star(self, f: TensorSeries, g: TensorSeries, cut: int | None = None) -> TensorSeries:
        """f * g with the Lyndon-basis BCH kernel (group law on m^2).

        With a cut T below trunc only the degree-<=T part is computed:
        operand terms above T are dropped, brackets stop at T - 1 operands
        and each bracket is cut at T.  An operand term of degree > T only
        reaches degrees above T, so the result is exactly the degree-<=T
        part of the full product, term order included, in truncation trunc.
        """
        self._require_m2(f, "bch_star left operand")
        self._require_m2(g, "bch_star right operand")
        top, bracket = self.trunc, self.poisson
        if cut is not None and cut < top:
            f, g, top = f.up_to_degree(cut), g.up_to_degree(cut), cut
            bracket = partial(self.poisson, cut=cut)
        if f.is_zero():
            return g
        if g.is_zero():
            return f
        # the brackets up to top - 1 operands are the length-<=(top - 1)
        # prefix of the trunc - 1 table: one table serves every cut
        terms, factors = bch_lyndon_terms(self.trunc - 1)
        return _bch_sum(bracket, f, g, takewhile(lambda t: len(t[1]) < top, terms), factors)

    def bch_star_dynkin(self, f: TensorSeries, g: TensorSeries) -> TensorSeries:
        """Independent BCH evaluation via the Bernoulli recursion."""
        self._require_m2(f, "bch_star_dynkin left operand")
        self._require_m2(g, "bch_star_dynkin right operand")
        if f.is_zero():
            return g
        if g.is_zero():
            return f
        return bch_apply_recursion(self.poisson, f, g, self.trunc - 1)

    def ad_star(self, u: TensorSeries, x: TensorSeries) -> TensorSeries:
        """exp({u, .}) applied to x: the Hamiltonian flow of u.

        Agrees with u * x * (-u) whenever x lies in m^2; this is the
        extension used on coproduct values that need not lie in m^2.  Term k
        has degree >= mindeg(x) + k, so it vanishes by k = trunc + 1.
        """
        self._require_m2(u, "ad_star conjugator")
        if u.slots != x.slots:
            raise ValueError("slot mismatch in ad_star")
        total = x
        term = x
        k = 1
        while True:
            term = self.poisson(u, term).scale(Fraction(1, k))
            if term.is_zero():
                break
            total = total + term
            k += 1
        return total


def tensor2_to_series(t: Tensor2, trunc: int) -> TensorSeries:
    """Embed a degree-(1,1) 2-tensor as a 2-slot series."""
    return SparseTensor(2, trunc, {(((i,)), ((j,))): c for (i, j), c in t.items()})
