"""Sparse exact Gaussian elimination over the rationals, fraction-free.

First-nonzero pivoting in fixed row/column order: deterministic results,
no pivoting heuristics.  Systems here are desk-scale (at most a few
thousand unknowns), assembled from cochain bases and per-degree solves.

The elimination runs in int (fraction-free, after Bareiss 1968): each row
and its target are scaled to int numerators once, a row is cleared of the
pivot column by an integer combination with the pivot row, and each
changed row is divided by the gcd of its entries and target.  An index
from each column to the rows holding it finds the pivot and the rows to
clear without scanning the others.  Every row stays a nonzero multiple of
the row that elimination over Q holds at the same step, so the zero
pattern, the pivots, the rank and the failure row are those of Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

Row = dict[int, Fraction | int]


class LinearSystem(NamedTuple):
    """rows[i] maps column index -> int or Fraction coefficient; rhs[i] is
    the target.  The solver only reads rows and rhs, so callers may share
    them between systems."""

    n_cols: int
    rows: list[Row]
    rhs: list[Fraction | int]


class LinearSolveResult(NamedTuple):
    solvable: bool
    solution: list[Fraction] | None
    rank: int
    # first witness row with 0 == nonzero after elimination, if unsolvable
    failure_row: int | None = None


def _int_row(row: Row, b: Fraction | int) -> tuple[dict[int, int], int]:
    """The nonzero entries of row and the target b, both times the lcm of
    their denominators, as ints.  An all-int row is copied unscaled."""
    row = {j: c for j, c in row.items() if c}
    vals = [*row.values(), b]
    if all(c.__class__ is int for c in vals):
        return row, b
    den = lcm(*(c.denominator for c in vals))
    return (
        {j: c.numerator * (den // c.denominator) for j, c in row.items()},
        b.numerator * (den // b.denominator),
    )


def _eliminate(sys: LinearSystem):
    """Reduced row echelon form by first-nonzero pivot; returns (pivots,
    rows, rhs), pivots a list of (row index, column) in elimination order,
    rows and rhs int multiples of the reduced rows and targets over Q.

    The one copy of the system's rows, as int numerators (zeros dropped,
    columns range-checked).  The pivot of a column is the first row at or
    after the next pivot position that holds it, as a scan would find.
    """
    n_cols = sys.n_cols
    holders: list[set[int]] = [set() for _ in range(n_cols)]
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for i, (row, b) in enumerate(zip(sys.rows, sys.rhs)):
        row, b = _int_row(row, b)
        for j in row:
            if not 0 <= j < n_cols:
                raise ValueError(f"column {j} out of range")
            holders[j].add(i)
        rows.append(row)
        rhs.append(b)
    pivots: list[tuple[int, int]] = []
    pivot_row = 0
    for col in range(n_cols):
        held = holders[col]
        sel = min((i for i in held if i >= pivot_row), default=None)
        if sel is None:
            continue
        if sel != pivot_row:
            for i in (sel, pivot_row):
                for j in rows[i]:
                    holders[j].remove(i)
            rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
            rhs[pivot_row], rhs[sel] = rhs[sel], rhs[pivot_row]
            for i in (sel, pivot_row):
                for j in rows[i]:
                    holders[j].add(i)
        prow = rows[pivot_row]
        p, pb = prow[col], rhs[pivot_row]
        for i in [i for i in held if i != pivot_row]:
            # row i <- (p/g) row i - (f/g) prow clears col
            ri = rows[i]
            f = ri[col]
            g = gcd(p, f)
            a, e = p // g, f // g
            if a != 1:
                ri = rows[i] = {j: a * c for j, c in ri.items()}
            for j, c in prow.items():
                v = ri.get(j, 0) - e * c
                if v:
                    if j not in ri:
                        holders[j].add(i)
                    ri[j] = v
                else:
                    del ri[j]
                    holders[j].remove(i)
            t = a * rhs[i] - e * pb
            g = gcd(t, *ri.values())
            if g > 1:
                for j in ri:
                    ri[j] //= g
                t //= g
            rhs[i] = t
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivots, rows, rhs


def solve_linear(sys: LinearSystem) -> LinearSolveResult:
    """Solve sys exactly.

    Returns one solution (free variables set to 0) and the rank, or an
    explicit no-solution result with the rank and the inconsistent row
    index.
    """
    if len(sys.rows) != len(sys.rhs):
        raise ValueError("row/rhs length mismatch")
    pivots, rows, rhs = _eliminate(sys)
    rank = len(pivots)
    for i in range(rank, len(rows)):
        if not rows[i] and rhs[i] != 0:
            return LinearSolveResult(False, None, rank, failure_row=i)
    solution = [Fraction(0)] * sys.n_cols
    for ri, col in pivots:
        solution[col] = Fraction(rhs[ri], rows[ri][col])
    return LinearSolveResult(True, solution, rank)

