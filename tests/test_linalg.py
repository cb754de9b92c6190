from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from hypothesis import given, settings, strategies as st

from gammastack.linalg import LinearSystem, solve_linear

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
    assert res.failure_row is not None


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
