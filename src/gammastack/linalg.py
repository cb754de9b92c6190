"""Sparse exact Gaussian elimination over the rationals.

First-nonzero pivoting in fixed row/column order: deterministic results,
no pivoting heuristics.  Systems here are desk-scale (at most a few
thousand unknowns), assembled from cochain bases and per-degree solves.
"""

from __future__ import annotations

from fractions import Fraction
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


def _eliminate(sys: LinearSystem):
    """Reduced row echelon form by first-nonzero pivot; returns (pivots,
    rows, rhs), pivots a list of (row index, column) in elimination order.

    The one copy of the system's rows: each nonzero entry and each target
    becomes a `Fraction`, so a pivot division stays exact on int rows.
    """
    rows = [{j: Fraction(c) for j, c in row.items() if c} for row in sys.rows]
    for row in rows:
        for j in row:
            if not 0 <= j < sys.n_cols:
                raise ValueError(f"column {j} out of range")
    rhs = [Fraction(b) for b in sys.rhs]
    pivots: list[tuple[int, int]] = []
    pivot_row = 0
    for col in range(sys.n_cols):
        sel = None
        for i in range(pivot_row, len(rows)):
            if rows[i].get(col, 0) != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        rhs[pivot_row], rhs[sel] = rhs[sel], rhs[pivot_row]
        piv = rows[pivot_row][col]
        if piv != 1:
            rows[pivot_row] = {j: c / piv for j, c in rows[pivot_row].items()}
            rhs[pivot_row] = rhs[pivot_row] / piv
        prow = rows[pivot_row]
        for i in range(len(rows)):
            if i == pivot_row:
                continue
            f = rows[i].get(col, 0)
            if f == 0:
                continue
            ri = rows[i]
            for j, c in prow.items():
                v = ri.get(j, 0) - f * c
                if v:
                    ri[j] = v
                else:
                    ri.pop(j, None)
            rhs[i] = rhs[i] - f * rhs[pivot_row]
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
        solution[col] = rhs[ri]
    return LinearSolveResult(True, solution, rank)
