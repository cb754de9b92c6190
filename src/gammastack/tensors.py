"""Sparse multigraded elements over exact rationals.

`SparseElement` is the shared core: a sparse Q-combination of keys cut at a
bound, stored as int numerators over one denominator.  `SparseTensor` is its
truncated symmetric-tensor form: a monomial is a tuple of slots, each slot a
sorted tuple of basis indices (a multiset), the empty slot is the unit 1 in
that slot, and the bound is total degree at most `trunc`.  The quantized
elements of `gammastack.quantum` are the other subclass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

Word = tuple[int, ...]
Monomial = tuple[Word, ...]


def unit_monomial(slots: int) -> Monomial:
    return tuple(() for _ in range(slots))


def monomial_degree(mono: Monomial) -> int:
    return sum(map(len, mono))


def monomial_key(mono: Monomial):
    """Canonical order: total degree, then slot-major (degree, indices)."""
    return (monomial_degree(mono), tuple((len(s), s) for s in mono))


def sorted_words(dim: int, deg: int) -> list[tuple[int, ...]]:
    """All sorted words of length deg over range(dim), in lexicographic order.

    These index the PBW basis of an enveloping algebra and the monomials of
    the symmetric algebra in one degree.
    """
    return list(combinations_with_replacement(range(dim), deg))


def slot_monomials(dim: int, slots: int, deg: int, least: int = 1) -> list[Monomial]:
    """All monomials of total degree deg in `slots` slots over range(dim)
    whose every slot has degree at least `least` (0 or 1), in
    `monomial_key` order: the recursion runs over the first slot's degree,
    then its words in lexicographic order.
    """
    if slots == 1:
        return [(w,) for w in sorted_words(dim, deg)] if deg >= least else []
    out: list[Monomial] = []
    for d in range(least, deg - least * (slots - 1) + 1):
        rests = slot_monomials(dim, slots - 1, deg - d, least)
        out.extend((w,) + rest for w in sorted_words(dim, d) for rest in rests)
    return out


def merge_slot(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


def multiset_factor(slot: tuple[int, ...]) -> int:
    """Product of multiplicity factorials of a sorted slot."""
    out, run = 1, 1
    for i in range(1, len(slot)):
        if slot[i] == slot[i - 1]:
            run += 1
            out *= run
        else:
            run = 1
    return out


def word_str(word: tuple[int, ...], labels: list[str] | None) -> str:
    """A word as its basis labels (e0 e1 ... without labels); 1 if empty."""
    if not word:
        return "1"
    return " ".join(labels[i] if labels else f"e{i}" for i in word)


def _add_into(target: dict, key, value):
    """Add value at key, keeping only nonzero entries."""
    if value:
        old = target.get(key)
        new = value if old is None else old + value
        if new:
            target[key] = new
        else:
            del target[key]


def nums_over_lcm(coeffs: dict) -> tuple[dict, int]:
    """Nonzero int or `Fraction` values as int numerators over the lcm of
    their denominators.  The pair is in canonical form: each value is in
    lowest terms, so no prime of the lcm divides every numerator."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


def common_den(out: dict, den: int, d: int) -> int:
    """Bring the int sums in out from denominator den to lcm(den, d) and
    return it.  The values are rescaled in place, so the keys keep their
    order."""
    if den % d:
        k = d // gcd(den, d)
        for key in out:
            out[key] *= k
        den *= k
    return den


class SparseElement:
    """Sparse combination of keys with nonzero rational coefficients.

    The coefficients are stored as one dict `num` of int numerators over one
    int denominator `den`, always in canonical form: den >= 1, no zero
    numerator, gcd(den, every numerator) = 1, and zero is {} over 1.  So
    arithmetic stays in int, each result is reduced once, and equal elements
    have equal (den, num).  `coeffs`, `items` and `format` show reduced
    `Fraction`s.

    Every stored key lies within the bound of the element's space, which a
    subclass holds in the attribute named by `_space`.  Public constructors
    of subclasses clean outside data; results built here go through
    `_trusted` or `_reduced`, which store their dict as given.  A subclass
    supplies the compatibility check `_check(other)` (raising ValueError),
    the display order `_sort_key(key)` and the term body `_term(key, labels)`.
    Immutable by convention: no method mutates self, so the hash is computed
    once and kept, and an element is a cheap memo key.
    """

    __slots__ = ("slots", "num", "den", "_hash")
    _space: str

    @classmethod
    def _trusted(cls, space, slots: int, num: dict, den: int = 1):
        """Element of `space` holding num over den without copy or check.

        The caller guarantees canonical form and keys within the bound of
        `space`; the dict must not be mutated afterwards.
        """
        out = object.__new__(cls)
        setattr(out, cls._space, space)
        out.slots = slots
        out.num = num
        out.den = den
        return out

    @classmethod
    def _reduced(cls, space, slots: int, num: dict, den: int):
        """`_trusted` after dividing num and den (> 0) by their gcd; num
        holds no zero value."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        return cls._trusted(space, slots, num, den)

    def _like(self, num: dict, den: int = 1):
        """`_trusted` in the space and slot count of self."""
        return self._trusted(getattr(self, self._space), self.slots, num, den)

    def _like_reduced(self, num: dict, den: int):
        """`_reduced` in the space and slot count of self."""
        return self._reduced(getattr(self, self._space), self.slots, num, den)

    @staticmethod
    def _sort_key(key):
        return key

    # -- queries --------------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The coefficients as reduced `Fraction`s, in key order: a view
        built on each access."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is self.__class__
            and self.slots == other.slots
            and self.den == other.den
            and getattr(self, self._space) == getattr(other, self._space)
            and self.num == other.num
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.slots, self.den, frozenset(self.num.items())))
            return h

    def items(self) -> list[tuple]:
        """(key, coefficient) pairs in canonical order."""
        key = self._sort_key
        return sorted(self.coeffs.items(), key=lambda kv: key(kv[0]))

    def format(self, labels: list[str] | None = None) -> str:
        """Deterministic human-readable form, e.g. '-2 x y|1 + 1 y|x'."""
        if not self.num:
            return "0"
        return " + ".join(f"{c} {self._term(k, labels)}" for k, c in self.items())

    # -- linear arithmetic ----------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the denominators; a key that
        cancels is deleted, and comes back at the end."""
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            out = dict(self.num)
            den = d1
        else:
            g = gcd(d1, d2)
            k1 = d2 // g
            sign *= d1 // g
            out = {k: v * k1 for k, v in self.num.items()}
            den = d1 * k1
        get = out.get
        for k, v in other.num.items():
            s = get(k, 0) + sign * v
            if s:
                out[k] = s
            else:
                del out[k]
        return self._like_reduced(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -v for k, v in self.num.items()}, self.den)

    def scale(self, c: Fraction | int):
        p, q = c.numerator, c.denominator
        if not p:
            return self._like({})
        return self._like_reduced({k: p * v for k, v in self.num.items()}, self.den * q)


class SparseTensor(SparseElement):
    """Truncated element of the n-fold symmetric tensor power.

    The public constructor raises ValueError on a monomial with the wrong
    slot count or with a slot that is not a sorted word: every slot is one
    multiset, so equality, sums and products read it in one spelling.
    """

    __slots__ = ("trunc",)
    _space = "trunc"

    def __init__(self, slots: int, trunc: int, coeffs: dict[Monomial, Fraction] | None = None):
        if slots < 1:
            raise ValueError("slot count must be >= 1")
        self.slots = slots
        self.trunc = trunc
        clean: dict[Monomial, Fraction] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if len(mono) != slots:
                    raise ValueError(f"monomial {mono} has wrong slot count")
                if any(list(w) != sorted(w) for w in mono):
                    raise ValueError(f"a slot of monomial {mono} is not a sorted word")
                if monomial_degree(mono) > trunc or c == 0:
                    continue
                clean[mono] = Fraction(c)
        self.num, self.den = nums_over_lcm(clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, slots: int, trunc: int) -> SparseTensor:
        return cls(slots, trunc)

    @classmethod
    def unit(cls, slots: int, trunc: int) -> SparseTensor:
        return cls(slots, trunc, {unit_monomial(slots): 1})

    @classmethod
    def generator(cls, index: int, trunc: int) -> SparseTensor:
        """Degree-1 basis element as a 1-slot tensor."""
        return cls(1, trunc, {((index,),): 1})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_reduced(self) -> bool:
        """Membership in m^{otimes n}: every slot of every monomial nonempty."""
        return all(all(len(s) >= 1 for s in m) for m in self.num)

    def homogeneous_part(self, degree: int) -> SparseTensor:
        return self._like_reduced(
            {m: v for m, v in self.num.items() if monomial_degree(m) == degree}, self.den
        )

    def up_to_degree(self, top: int) -> SparseTensor:
        """The terms of degree at most top, in the space of self."""
        num = {m: v for m, v in self.num.items() if monomial_degree(m) <= top}
        return self if len(num) == len(self.num) else self._like_reduced(num, self.den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: SparseTensor):
        if self.slots != other.slots:
            raise ValueError(f"slot mismatch: {self.slots} vs {other.slots}")
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __mul__(self, other: SparseTensor) -> SparseTensor:
        """Slotwise symmetric-algebra product, truncated."""
        self._check(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.num.items():
            d1 = monomial_degree(m1)
            for m2, c2 in other.num.items():
                if d1 + monomial_degree(m2) > self.trunc:
                    continue
                _add_into(out, tuple(merge_slot(a, b) for a, b in zip(m1, m2)), c1 * c2)
        return self._like_reduced(out, self.den * other.den)

    # -- display -----------------------------------------------------------

    _sort_key = staticmethod(monomial_key)

    def _term(self, mono: Monomial, labels: list[str] | None) -> str:
        return "|".join(word_str(s, labels) for s in mono)

    def __repr__(self):
        return f"SparseTensor({self.slots} slots, N={self.trunc}, {self.format()})"


# -- the tensor-slot calculus ----------------------------------------------------


def tensor_unit(a: SparseTensor, pos: int) -> SparseTensor:
    """a with a unit slot inserted at position pos (pos = a.slots appends it)."""
    num = {m[:pos] + ((),) + m[pos:]: v for m, v in a.num.items()}
    return SparseTensor._trusted(a.trunc, a.slots + 1, num, a.den)


def coproduct_slot(
    a: SparseTensor, idx: int, split, trunc: int, den: int = 1, cut: int | None = None
) -> SparseTensor:
    """a with the word at slot idx split in two by split, in truncation trunc.

    split(word) is Delta(word) as {(left, right): int numerator over den},
    the unit in both slots for the empty word.  Terms are summed in order:
    a's monomials, then each one's split.  Terms above degree cut (default
    trunc) are dropped, so a cut result is exactly the degree-<=cut part of
    the full one, still in truncation trunc.
    """
    top = trunc if cut is None else min(cut, trunc)
    out: dict[Monomial, int] = {}
    get = out.get
    for mono, c in a.num.items():
        head, word, tail = mono[:idx], mono[idx], mono[idx + 1 :]
        room = top - monomial_degree(mono) + len(word)
        for (left, right), c2 in split(word).items():
            if len(left) + len(right) <= room:
                key = head + (left, right) + tail
                v = get(key, 0) + c * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
    return SparseTensor._reduced(trunc, a.slots + 1, out, a.den * den)


# The truncated function-algebra elements of the formal dual group are the
# same data structure; the alias matches the two roles one type plays.
TensorSeries = SparseTensor
