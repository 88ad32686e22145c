"""Exact linear algebra over Q by one fraction-free Gauss-Jordan elimination
on ints (Bareiss, Math. Comp. 22, 1968), each row first scaled by the lcm of
its denominators.  A step sets every other row to (pivot * row - factor *
pivot row) / previous pivot: by Sylvester's identity each result is a minor
of the scaled matrix, so every division is exact."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _eliminate(mat: list, ncols: int) -> tuple:
    """Reduce a list of int rows in place over its first ncols columns;
    returns (rank, last pivot).  Pivot rows come first, each pivot alone in
    its column; a full-rank square part ends as +-det times the identity."""
    rank, prev = 0, 1
    for col in range(ncols):
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top, p = mat[rank], mat[rank][col]
        for r, row in enumerate(mat):
            if r != rank:
                f = row[col]
                mat[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        rank, prev = rank + 1, p
    return rank, prev


def _int_row(row) -> list:
    """A row of rationals times the lcm of its denominators."""
    row = [Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * d // x.denominator for x in row]


def frac_rank(rows) -> int:
    """Rank over Q of a list of rational rows."""
    mat = [_int_row(row) for row in rows]
    return _eliminate(mat, len(mat[0]) if mat else 0)[0]


def frac_solve(a, b):
    """Solve the square system a X = B exactly, with B given as rows (one
    per row of a) and X returned as rows; raises on singular a."""
    n = len(a)
    mat = [_int_row([*row, *rhs]) for row, rhs in zip(a, b)]
    rank, det = _eliminate(mat, n)
    if rank < n:
        raise ValueError("singular system")
    return [[Fraction(x, det) for x in row[n:]] for row in mat]
