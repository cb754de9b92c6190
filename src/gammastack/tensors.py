"""Sparse multigraded tensors over exact rationals.

A monomial is a tuple of slots; each slot is a sorted tuple of basis indices
(a multiset).  The empty slot is the unit 1 in that slot.  A SparseTensor
maps monomials to nonzero Fractions and carries a slot count and a hard
truncation bound on total degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

Monomial = tuple[tuple[int, ...], ...]


def unit_monomial(slots: int) -> Monomial:
    return tuple(() for _ in range(slots))


def monomial_degree(mono: Monomial) -> int:
    return sum(len(s) for s in mono)


def monomial_key(mono: Monomial):
    """Canonical order: total degree, then slot-major (degree, indices)."""
    return (monomial_degree(mono), tuple((len(s), s) for s in mono))


def sorted_words(dim: int, deg: int) -> list[tuple[int, ...]]:
    """All sorted words of length deg over range(dim), in lexicographic order.

    These index the PBW basis of an enveloping algebra and the monomials of
    the symmetric algebra in one degree.
    """
    return list(combinations_with_replacement(range(dim), deg))


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


class SparseTensor:
    """Truncated element of the n-fold symmetric tensor power.

    Immutable by convention: no method mutates self; all operations return
    new tensors.  Zero coefficients are never stored.
    """

    __slots__ = ("slots", "trunc", "coeffs")

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
                if monomial_degree(mono) > trunc or c == 0:
                    continue
                clean[mono] = Fraction(c)
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, slots: int, trunc: int) -> SparseTensor:
        return cls(slots, trunc)

    @classmethod
    def unit(cls, slots: int, trunc: int) -> SparseTensor:
        return cls(slots, trunc, {unit_monomial(slots): Fraction(1)})

    @classmethod
    def generator(cls, index: int, trunc: int) -> SparseTensor:
        """Degree-1 basis element as a 1-slot tensor."""
        return cls(1, trunc, {((index,),): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and self.slots == other.slots
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.slots, frozenset(self.coeffs.items())))

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self.coeffs.items(), key=lambda kv: monomial_key(kv[0])))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(mono, Fraction(0))

    def min_degree(self) -> int | None:
        """Smallest total degree of a stored monomial, or None if zero."""
        if not self.coeffs:
            return None
        return min(monomial_degree(m) for m in self.coeffs)

    def in_maximal_power(self, k: int) -> bool:
        """Membership in m^k: every monomial has total degree >= k."""
        return all(monomial_degree(m) >= k for m in self.coeffs)

    def is_reduced(self) -> bool:
        """Membership in m^{otimes n}: every slot of every monomial nonempty."""
        return all(all(len(s) >= 1 for s in m) for m in self.coeffs)

    def homogeneous_part(self, degree: int) -> SparseTensor:
        return SparseTensor(
            self.slots,
            self.trunc,
            {m: c for m, c in self.coeffs.items() if monomial_degree(m) == degree},
        )

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: SparseTensor):
        if self.slots != other.slots:
            raise ValueError(f"slot mismatch: {self.slots} vs {other.slots}")
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __add__(self, other: SparseTensor) -> SparseTensor:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = out.get(m, Fraction(0)) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return SparseTensor(self.slots, self.trunc, out)

    def __neg__(self) -> SparseTensor:
        return SparseTensor(self.slots, self.trunc, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: SparseTensor) -> SparseTensor:
        return self + (-other)

    def scale(self, c: Fraction | int) -> SparseTensor:
        c = Fraction(c)
        if c == 0:
            return SparseTensor.zero(self.slots, self.trunc)
        return SparseTensor(self.slots, self.trunc, {m: c * v for m, v in self.coeffs.items()})

    def __mul__(self, other: SparseTensor) -> SparseTensor:
        """Slotwise symmetric-algebra product, truncated."""
        self._check_compatible(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            d1 = monomial_degree(m1)
            for m2, c2 in other.coeffs.items():
                if d1 + monomial_degree(m2) > self.trunc:
                    continue
                m = tuple(merge_slot(a, b) for a, b in zip(m1, m2))
                v = out.get(m, Fraction(0)) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return SparseTensor(self.slots, self.trunc, out)

    # -- display -----------------------------------------------------------

    def format(self, labels: list[str] | None = None) -> str:
        """Deterministic human-readable form, e.g. '-2 x y|1 + 1 y|x'."""
        if not self.coeffs:
            return "0"

        def slot_str(slot: tuple[int, ...]) -> str:
            if not slot:
                return "1"
            if labels:
                return " ".join(labels[i] for i in slot)
            return " ".join(f"e{i}" for i in slot)

        parts = []
        for mono, c in self.items():
            body = "|".join(slot_str(s) for s in mono)
            parts.append(f"{c} {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SparseTensor({self.slots} slots, N={self.trunc}, {self.format()})"


# The truncated function-algebra elements of the formal dual group are the
# same data structure; the alias matches the two roles one type plays.
TensorSeries = SparseTensor
