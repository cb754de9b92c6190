"""Group-equivariant Lie bialgebras over the rationals.

A LieBialgebra stores bracket and cobracket structure constants; a
GammaLieBialgebra adds a finite group acting by automorphisms together with
the twist map gamma -> f_gamma in wedge^2(g) subject to the three
compatibility conditions (a), (b), (c).  Validators expand every condition
on every basis tuple / group tuple and report all violations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from gammastack.tensors import _add_into

Vec = dict[int, Fraction]
Tensor2 = dict[tuple[int, int], Fraction]
Tensor3 = dict[tuple[int, int, int], Fraction]
Word = tuple[int, ...]

_ZERO = Fraction(0)


class ValidationIssue(NamedTuple):
    condition: str
    location: tuple
    detail: str = ""

    def __str__(self):
        loc = ",".join(str(x) for x in self.location)
        msg = f"{self.condition} violated at ({loc})"
        return f"{msg}: {self.detail}" if self.detail else msg


class LieBialgebra:
    """Structure constants of a finite-dimensional Lie bialgebra.

    bracket[(i,j,k)] is the coefficient of e_k in [e_i, e_j];
    cobracket[(k,i,j)] is the coefficient of e_i (x) e_j in delta(e_k),
    with wedge^2(g) embedded in g (x) g as e_i (x) e_j - e_j (x) e_i.
    """

    def __init__(self, dim: int, labels: list[str], bracket: Tensor3, cobracket: Tensor3):
        if dim < 1:
            raise ValueError("dim must be positive")
        if len(labels) != dim or len(set(labels)) != dim:
            raise ValueError("need dim distinct basis labels")
        self.dim = dim
        self.labels = list(labels)
        self.bracket = {k: Fraction(v) for k, v in bracket.items() if v != 0}
        self.cobracket = {k: Fraction(v) for k, v in cobracket.items() if v != 0}
        for key in list(self.bracket) + list(self.cobracket):
            if len(key) != 3 or not all(0 <= i < dim for i in key):
                raise ValueError(f"index {key} out of range")
        # [e_i, e_j] by pair in increasing k, and delta(e_k) by k in the
        # cobracket's order: read-only, shared by every lookup
        self._bracket_rows: list[list[Vec]] = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j, k) in sorted(self.bracket):
            self._bracket_rows[i][j][k] = self.bracket[(i, j, k)]
        self._cobracket_rows: list[Tensor2] = [{} for _ in range(dim)]
        for (k, i, j), c in self.cobracket.items():
            self._cobracket_rows[k][(i, j)] = c
        self._straighten_cache: dict[Word, dict[Word, Fraction]] = {}

    def dual(self) -> LieBialgebra:
        """The dual Lie bialgebra g*: bracket and cobracket swap by transposition.

        Its enveloping algebra U(g*) is what straighten normal-orders for
        the pairing-based function algebra of the dual formal group.
        """
        bracket = {(i, j, k): c for (k, i, j), c in self.cobracket.items()}
        cobracket = {(k, i, j): c for (i, j, k), c in self.bracket.items()}
        return LieBialgebra(self.dim, self.labels, bracket, cobracket)

    # -- structure lookups --------------------------------------------------

    def bracket_coeff(self, i: int, j: int, k: int) -> Fraction:
        return self._bracket_rows[i][j].get(k, _ZERO)

    def bracket_elems(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as {k: coefficient}, in increasing k; read-only."""
        return self._bracket_rows[i][j]

    def bracket_vec(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, a in x.items():
            for j, b in y.items():
                if a == 0 or b == 0:
                    continue
                for k, c in self.bracket_elems(i, j).items():
                    _add_into(out, k, a * b * c)
        return out

    def cobracket_tensor(self, k: int) -> Tensor2:
        """delta(e_k) as {(i, j): coefficient}; read-only."""
        return self._cobracket_rows[k]

    # -- PBW straightening in U(g) ------------------------------------------

    def straighten(self, word: Word) -> dict[Word, Fraction]:
        """Normal order an arbitrary word of generator indices in U(g).

        This is the only PBW straightener: U(g*_gamma) is straightened
        through the dual bialgebra, see dual().
        """
        cached = self._straighten_cache.get(word)
        if cached is not None:
            return cached
        pos = None
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                pos = t
                break
        if pos is None:
            result = {word: Fraction(1)}
        else:
            a, b = word[pos], word[pos + 1]
            swapped = word[:pos] + (b, a) + word[pos + 2 :]
            result: dict[Word, Fraction] = {}
            for w, c in self.straighten(swapped).items():
                _add_into(result, w, c)
            for k, c in self.bracket_elems(a, b).items():
                reduced = word[:pos] + (k,) + word[pos + 2 :]
                for w, c2 in self.straighten(reduced).items():
                    _add_into(result, w, c * c2)
        self._straighten_cache[word] = result
        return result

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        d = self.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if self.bracket_coeff(i, j, k) + self.bracket_coeff(j, i, k) != 0:
                        issues.append(
                            ValidationIssue(
                                "bracket-antisymmetry",
                                (self.labels[i], self.labels[j], self.labels[k]),
                            )
                        )
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    a = self.cobracket.get((k, i, j), Fraction(0))
                    b = self.cobracket.get((k, j, i), Fraction(0))
                    if a + b != 0:
                        issues.append(
                            ValidationIssue(
                                "cobracket-antisymmetry",
                                (self.labels[k], self.labels[i], self.labels[j]),
                            )
                        )
        # Jacobi: [[i,j],k] + [[j,k],i] + [[k,i],j] = 0
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    acc: Vec = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_elems(a, b)
                        for m, cm in inner.items():
                            for l, cl in self.bracket_elems(m, c).items():
                                _add_into(acc, l, cm * cl)
                    if acc:
                        issues.append(
                            ValidationIssue(
                                "jacobi", (self.labels[i], self.labels[j], self.labels[k])
                            )
                        )
        # co-Jacobi: cyclic sum of (delta (x) id) o delta = 0
        for k in range(d):
            acc3: Tensor3 = {}
            for (a, b), c in self.cobracket_tensor(k).items():
                for (p, q), c2 in self.cobracket_tensor(a).items():
                    for key in ((p, q, b), (b, p, q), (q, b, p)):
                        _add_into(acc3, key, c * c2)
            if acc3:
                issues.append(ValidationIssue("co-jacobi", (self.labels[k],)))
        # 1-cocycle: delta([x,y]) = ad_x delta(y) - ad_y delta(x)
        for i in range(d):
            for j in range(d):
                lhs: Tensor2 = {}
                for k, c in self.bracket_elems(i, j).items():
                    for key, c2 in self.cobracket_tensor(k).items():
                        _add_into(lhs, key, c * c2)
                rhs: Tensor2 = {}
                for key, c in self._ad_on_tensor2(i, self.cobracket_tensor(j)).items():
                    _add_into(rhs, key, c)
                for key, c in self._ad_on_tensor2(j, self.cobracket_tensor(i)).items():
                    _add_into(rhs, key, -c)
                if lhs != rhs:
                    issues.append(ValidationIssue("cocycle", (self.labels[i], self.labels[j])))
        return issues

    def _ad_on_tensor2(self, i: int, t: Tensor2) -> Tensor2:
        """(ad_i (x) 1 + 1 (x) ad_i) applied to a 2-tensor."""
        out: Tensor2 = {}
        for (a, b), c in t.items():
            for k, ck in self.bracket_elems(i, a).items():
                _add_into(out, (k, b), c * ck)
            for k, ck in self.bracket_elems(i, b).items():
                _add_into(out, (a, k), c * ck)
        return out


class FiniteGroup:
    """Finite group given by its multiplication table."""

    def __init__(self, labels: list[str], table: list[list[int]]):
        n = len(labels)
        if len(set(labels)) != n or n < 1:
            raise ValueError("need distinct element labels")
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("multiplication table must be n x n")
        if any(not 0 <= v < n for r in table for v in r):
            raise ValueError("table entry out of range")
        self.labels = list(labels)
        self.table = [list(r) for r in table]
        self.order = n
        self.identity = self._find_identity()
        self.inverse = [self._find_inverse(g) for g in range(n)]

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(self.order)):
                return e
        raise ValueError("no identity element")

    def _find_inverse(self, g: int) -> int:
        for h in range(self.order):
            if self.table[g][h] == self.identity and self.table[h][g] == self.identity:
                return h
        raise ValueError(f"no inverse for element {self.labels[g]}")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def validate(self) -> list[ValidationIssue]:
        issues = []
        n = self.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        issues.append(
                            ValidationIssue(
                                "associativity", (self.labels[a], self.labels[b], self.labels[c])
                            )
                        )
        return issues

    @classmethod
    def cyclic(cls, n: int, prefix: str = "g") -> FiniteGroup:
        labels = ["e"] + [f"{prefix}{k}" if k > 1 else prefix for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(labels, table)


Matrix = list[list[Fraction]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def mat_apply(m: Matrix, x: Vec) -> Vec:
    out: Vec = {}
    for j, c in x.items():
        for i in range(len(m)):
            _add_into(out, i, m[i][j] * c)
    return out


def wedge2_apply(m: Matrix, t: Tensor2) -> Tensor2:
    """theta (x) theta applied to a 2-tensor."""
    out: Tensor2 = {}
    n = len(m)
    for (a, b), c in t.items():
        for i in range(n):
            if m[i][a] == 0:
                continue
            for j in range(n):
                if m[j][b] == 0:
                    continue
                _add_into(out, (i, j), c * m[i][a] * m[j][b])
    return out


def theta2_shift(m: Matrix, t: Tensor2) -> Tensor2:
    """theta^{(x)2}(t) - t: the twist map f_g of an r-matrix t, and zero iff
    theta preserves t."""
    out = wedge2_apply(m, t)
    for key, c in t.items():
        _add_into(out, key, -c)
    return out


class GammaLieBialgebra:
    """Lie bialgebra with finite-group action theta and twist map f."""

    def __init__(
        self,
        lba: LieBialgebra,
        group: FiniteGroup,
        theta: dict[int, Matrix],
        f: dict[int, Tensor2],
    ):
        self.lba = lba
        self.group = group
        d = lba.dim
        self.theta: dict[int, Matrix] = {}
        for g in group.elements():
            m = theta.get(g)
            if m is None:
                raise ValueError(f"missing theta for {group.labels[g]}")
            if len(m) != d or any(len(r) != d for r in m):
                raise ValueError(f"theta[{group.labels[g]}] has wrong shape")
            self.theta[g] = [[Fraction(v) for v in row] for row in m]
        self.f: dict[int, Tensor2] = {}
        for g in group.elements():
            t = f.get(g, {})
            clean = {k: Fraction(v) for k, v in t.items() if v != 0}
            for (i, j) in clean:
                if not (0 <= i < d and 0 <= j < d):
                    raise ValueError(f"f[{group.labels[g]}] index out of range")
            self.f[g] = clean

    def theta_inv(self, g: int) -> Matrix:
        return self.theta[self.group.inverse[g]]


def delta_gamma_tensor(G: GammaLieBialgebra, gamma: int, k: int) -> Tensor2:
    """delta_gamma(e_k) = delta(e_k) + [f_gamma, e_k (x) 1 + 1 (x) e_k]."""
    out = dict(G.lba.cobracket_tensor(k))
    for (a, b), c in G.f[gamma].items():
        for m, cm in G.lba.bracket_elems(a, k).items():
            _add_into(out, (m, b), c * cm)
        for m, cm in G.lba.bracket_elems(b, k).items():
            _add_into(out, (a, m), c * cm)
    return out


def validate_gamma_lba(G: GammaLieBialgebra) -> list[ValidationIssue]:
    """Expand all defining identities exactly; empty list iff valid."""
    issues = list(G.lba.validate())
    issues += G.group.validate()
    lba, grp = G.lba, G.group
    d = lba.dim
    # theta is a homomorphism into Lie algebra automorphisms
    for g in grp.elements():
        for h in grp.elements():
            prod = mat_mul(G.theta[g], G.theta[h])
            if prod != G.theta[grp.mul(g, h)]:
                issues.append(
                    ValidationIssue("theta-homomorphism", (grp.labels[g], grp.labels[h]))
                )
    for g in grp.elements():
        m = G.theta[g]
        for i in range(d):
            for j in range(d):
                lhs = mat_apply(m, lba.bracket_elems(i, j))
                rhs = lba.bracket_vec(mat_apply(m, {i: Fraction(1)}), mat_apply(m, {j: Fraction(1)}))
                if lhs != rhs:
                    issues.append(
                        ValidationIssue(
                            "theta-automorphism", (grp.labels[g], lba.labels[i], lba.labels[j])
                        )
                    )
    # f antisymmetry (structural for wedge^2 membership)
    for g in grp.elements():
        for (i, j) in set(G.f[g]) | {(j, i) for (i, j) in G.f[g]}:
            if G.f[g].get((i, j), Fraction(0)) + G.f[g].get((j, i), Fraction(0)) != 0:
                issues.append(
                    ValidationIssue("f-antisymmetry", (grp.labels[g], lba.labels[i], lba.labels[j]))
                )
    # condition (a): wedge^2(theta_g) delta(theta_g^{-1} x) = delta(x) + [f_g, x(x)1 + 1(x)x]
    for g in grp.elements():
        th_inv = G.theta_inv(g)
        for k in range(d):
            lhs: Tensor2 = {}
            for j, c in mat_apply(th_inv, {k: Fraction(1)}).items():
                for key, c2 in wedge2_apply(G.theta[g], lba.cobracket_tensor(j)).items():
                    _add_into(lhs, key, c * c2)
            if lhs != delta_gamma_tensor(G, g, k):
                issues.append(ValidationIssue("condition-a", (grp.labels[g], lba.labels[k])))
    # condition (b): f_{gh} = f_g + wedge^2(theta_g)(f_h)
    for g in grp.elements():
        for h in grp.elements():
            expect = dict(G.f[g])
            for key, c in wedge2_apply(G.theta[g], G.f[h]).items():
                _add_into(expect, key, c)
            if expect != G.f[grp.mul(g, h)]:
                issues.append(ValidationIssue("condition-b", (grp.labels[g], grp.labels[h])))
    # theta_e = id makes each theta_g invertible under the homomorphism
    # check, which alone passes a singular idempotent theta_e; f_e = 0 is
    # forced by (b) at (e, e), reported under condition-b
    e = grp.labels[grp.identity]
    if G.theta[grp.identity] != [[int(i == j) for j in range(d)] for i in range(d)]:
        issues.append(ValidationIssue("theta-homomorphism", (e,), "theta_e must be the identity"))
    if G.f[grp.identity]:
        issues.append(ValidationIssue("condition-b", (e,), "f_e must vanish"))
    # condition (c): cyclic sum of (delta (x) id)(f) + [f^{13}, f^{23}] = 0
    for g in grp.elements():
        z: Tensor3 = {}
        for (a, b), c in G.f[g].items():
            for (p, q), c2 in lba.cobracket_tensor(a).items():
                _add_into(z, (p, q, b), c * c2)
        for (a, b), c in G.f[g].items():
            for (p, q), c2 in G.f[g].items():
                for k, ck in lba.bracket_elems(b, q).items():
                    _add_into(z, (a, p, k), c * c2 * ck)
        acc: Tensor3 = {}
        for (i, j, k), c in z.items():
            for key in ((i, j, k), (k, i, j), (j, k, i)):
                _add_into(acc, key, c)
        if acc:
            issues.append(ValidationIssue("condition-c", (grp.labels[g],)))
    return issues


def classical_yang_baxter(lba: LieBialgebra, r: Tensor2) -> Tensor3:
    """[r12,r13] + [r12,r23] + [r13,r23] as a 3-tensor."""
    out: Tensor3 = {}
    for (a, b), c in r.items():
        for (p, q), c2 in r.items():
            v = c * c2
            for k, ck in lba.bracket_elems(a, p).items():
                _add_into(out, (k, b, q), v * ck)  # [r12, r13]
            for k, ck in lba.bracket_elems(b, p).items():
                _add_into(out, (a, k, q), v * ck)  # [r12, r23]
            for k, ck in lba.bracket_elems(b, q).items():
                _add_into(out, (a, p, k), v * ck)  # [r13, r23]
    return out


# -- co-Poisson envelope ------------------------------------------------------


def copoisson_envelope(G: GammaLieBialgebra, word: Word, gamma: int) -> dict[tuple, Fraction]:
    """Co-Poisson cobracket of U(g) x| Gamma on [x|gamma] and [1|gamma].

    From delta_U([x]) = [delta(x)], delta_U([gamma]) = -[f_gamma] and the
    co-Leibniz rule on [x|gamma] = [x][gamma] (theta_e = id), both slots
    labeled gamma:
        delta_U([x|gamma]) = [delta(x)] - sum f_gamma(i,j) ([x i] (x) [j] + [i] (x) [x j]),
        delta_U([1|gamma]) = -[f_gamma],
    with x i and x j straightened.  It reads only delta, f_gamma and the
    straightener: the reference the quantum classical limit is checked against.
    """
    if len(word) > 1:
        raise ValueError("the co-Poisson envelope is given on words of length <= 1")
    if not word:
        return {(((i,), gamma), ((j,), gamma)): -c for (i, j), c in G.f[gamma].items()}
    out: dict[tuple, Fraction] = {}
    for (i, j), c in G.lba.cobracket_tensor(word[0]).items():
        _add_into(out, (((i,), gamma), ((j,), gamma)), c)
    for (i, j), c in G.f[gamma].items():
        for w, cw in G.lba.straighten(word + (i,)).items():
            _add_into(out, ((w, gamma), ((j,), gamma)), -c * cw)
        for w, cw in G.lba.straighten(word + (j,)).items():
            _add_into(out, (((i,), gamma), (w, gamma)), -c * cw)
    return out
