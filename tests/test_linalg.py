from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from hypothesis import given, settings, strategies as st

from gammastack.linalg import LinearSolveResult, LinearSystem, _eliminate, solve_linear

F = Fraction


def test_identity_system():
    res = solve_linear(LinearSystem(3, [{i: F(1)} for i in range(3)], [F(1), F(2), F(3)]))
    assert res.solvable
    assert res.solution == [F(1), F(2), F(3)]
    assert res.rank == 3


def test_zero_matrix_full_kernel():
    res = solve_linear(LinearSystem(2, [{}], [0]))
    assert res.solvable
    assert res.solution == [F(0), F(0)]
    assert res.rank == 0


def test_two_by_two():
    # x + y = 3, x - y = 1  ->  (2, 1)
    res = solve_linear(LinearSystem(2, [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}], [F(3), F(1)]))
    assert res.solution == [F(2), F(1)]
    assert res.rank == 2


def test_inconsistent_reported():
    res = solve_linear(LinearSystem(1, [{0: F(1)}, {0: F(1)}], [F(1), F(2)]))
    assert not res.solvable
    assert res.solution is None


def test_int_rows_solved_exactly():
    """Int entries and targets are solved over Q, not divided as floats."""
    res = solve_linear(LinearSystem(1, [{0: 2}], [1]))
    assert res.solution == [Fraction(1, 2)]
    assert all(type(c) is Fraction for c in res.solution)


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        solve_linear(LinearSystem(1, [{1: 1}], [0]))


def _random_system(rng: random.Random, n_rows: int, n_cols: int) -> LinearSystem:
    sol = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
    rows = [
        {j: F(rng.randint(-3, 3)) for j in range(n_cols) if rng.random() < 0.6}
        for _ in range(n_rows)
    ]
    rhs = [sum((c * sol[j] for j, c in row.items()), F(0)) for row in rows]
    return LinearSystem(n_cols, rows, rhs)


def test_random_systems_residual_exactly_zero():
    rng = random.Random(7)
    for _ in range(25):
        sys = _random_system(rng, rng.randint(1, 6), rng.randint(1, 5))
        res = solve_linear(sys)
        assert res.solvable
        for row, b in zip(sys.rows, sys.rhs):
            assert sum((c * res.solution[j] for j, c in row.items()), F(0)) == b


def test_determinism():
    rng = random.Random(3)
    sys = _random_system(rng, 5, 4)
    r1 = solve_linear(sys)
    r2 = solve_linear(sys)
    assert r1 == r2


def _minor_rank(rows: list[dict[int, Fraction]], n_cols: int) -> int:
    """The size of the largest nonzero minor, by Leibniz determinants."""
    dense = [[row.get(j, 0) for j in range(n_cols)] for row in rows]

    def det(m):
        return sum(
            (-1) ** sum(a > b for a, b in combinations(p, 2)) * prod(m[i][p[i]] for i in range(len(m)))
            for p in permutations(range(len(m)))
        )

    for size in range(min(len(rows), n_cols), 0, -1):
        for rs in combinations(range(len(rows)), size):
            for cs in combinations(range(n_cols), size):
                if det([[dense[i][j] for j in cs] for i in rs]):
                    return size
    return 0


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_rank_bounded(n_rows, n_cols, seed):
    rng = random.Random(seed)
    rows = [
        {j: F(rng.randint(-2, 2)) for j in range(n_cols) if rng.random() < 0.7}
        for _ in range(n_rows)
    ]
    rows = [{j: c for j, c in r.items() if c != 0} for r in rows]
    r = solve_linear(LinearSystem(n_cols, rows, [0] * n_rows)).rank
    assert 0 <= r <= min(n_rows, n_cols)
    assert r == _minor_rank(rows, n_cols)


# -- the fraction-free eliminator against Gauss-Jordan over Fraction ----------------


def _fraction_gauss_jordan(sys: LinearSystem) -> LinearSolveResult:
    """The reference: Gauss-Jordan over `Fraction` with first-nonzero pivots,
    scanning every row for each pivot and clearing every other row."""
    rows = [{j: Fraction(c) for j, c in row.items() if c} for row in sys.rows]
    rhs = [Fraction(b) for b in sys.rhs]
    pivots = []
    pivot_row = 0
    for col in range(sys.n_cols):
        sel = next((i for i in range(pivot_row, len(rows)) if rows[i].get(col, 0) != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        rhs[pivot_row], rhs[sel] = rhs[sel], rhs[pivot_row]
        piv = rows[pivot_row][col]
        rows[pivot_row] = {j: c / piv for j, c in rows[pivot_row].items()}
        rhs[pivot_row] /= piv
        prow = rows[pivot_row]
        for i in range(len(rows)):
            f = rows[i].get(col, 0)
            if i == pivot_row or f == 0:
                continue
            for j, c in prow.items():
                v = rows[i].get(j, 0) - f * c
                if v:
                    rows[i][j] = v
                else:
                    rows[i].pop(j, None)
            rhs[i] -= f * rhs[pivot_row]
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == len(rows):
            break
    rank = len(pivots)
    for i in range(rank, len(rows)):
        if not rows[i] and rhs[i] != 0:
            return LinearSolveResult(False, None, rank)
    solution = [Fraction(0)] * sys.n_cols
    for ri, col in pivots:
        solution[col] = rhs[ri]
    return LinearSolveResult(True, solution, rank)


@st.composite
def sparse_systems(draw):
    """A sparse int or Fraction system with some rows combinations of others
    and targets from a drawn solution, one of them perhaps made inconsistent."""
    n_cols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    else:
        coeff = st.integers(-4, 4)
    rows = draw(st.lists(st.dictionaries(st.integers(0, n_cols - 1), coeff, max_size=n_cols), max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        if len(rows) >= 2:
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
            a, b = draw(coeff), draw(coeff)
            combo = {k: a * rows[i].get(k, 0) + b * rows[j].get(k, 0) for k in sorted(rows[i].keys() | rows[j].keys())}
            rows.insert(draw(st.integers(0, len(rows))), combo)
    sol = [draw(coeff) for _ in range(n_cols)]
    rhs = [sum(c * sol[k] for k, c in row.items()) for row in rows]
    if rows and draw(st.booleans()):
        rhs[draw(st.integers(0, len(rows) - 1))] += draw(coeff.filter(bool))
    return LinearSystem(n_cols, rows, rhs)


@given(sparse_systems())
@settings(max_examples=400, deadline=None)
def test_solve_linear_matches_fraction_gauss_jordan(sys):
    """The same solvability, solution and rank as Gauss-Jordan over Fraction,
    and the caller's rows and targets are left as they were."""
    before = ([list(row.items()) for row in sys.rows], list(sys.rhs))
    assert solve_linear(sys) == _fraction_gauss_jordan(sys)
    assert ([list(row.items()) for row in sys.rows], list(sys.rhs)) == before


def test_int_elimination_builds_no_fraction(monkeypatch):
    """An int system is eliminated in int: `_eliminate` constructs no
    Fraction, and the solve only the solution (its zero and one per pivot)."""
    rng = random.Random(11)
    sol = [rng.randint(-5, 5) for _ in range(20)]
    rows = [{j: rng.randint(-9, 9) for j in rng.sample(range(20), 4)} for _ in range(30)]
    rows += [{j: 2 * c for j, c in row.items()} for row in rows[:5]]
    sys = LinearSystem(20, rows, [sum(c * sol[j] for j, c in row.items()) for row in rows])
    calls = [0]
    original = Fraction.__new__

    def counting(cls, *a, **k):
        calls[0] += 1
        return original(cls, *a, **k)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        pivots = _eliminate(sys)[0]
        in_elimination = calls[0]
        res = solve_linear(sys)
    finally:
        monkeypatch.undo()
    assert in_elimination == 0
    assert res.solvable and res.rank == len(pivots) > 0
    assert calls[0] == 1 + res.rank
    for row, b in zip(rows, sys.rhs):
        assert sum(c * res.solution[j] for j, c in row.items()) == b
