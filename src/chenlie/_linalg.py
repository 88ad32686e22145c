"""Exact linear algebra helpers: ranks and solves by Gauss-Jordan
elimination on Fraction entries."""

from __future__ import annotations

from fractions import Fraction


def _gauss_jordan(mat: list, ncols: int) -> int:
    """Reduce a list of Fraction rows in place over its first ncols
    columns; returns the rank.  Pivot rows come first, each scaled to 1 at
    its pivot, which is the only nonzero entry of its column."""
    rank = 0
    for col in range(ncols):
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b if b else a for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def frac_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fraction entries."""
    mat = [[Fraction(x) for x in row] for row in rows]
    return _gauss_jordan(mat, len(mat[0]) if mat else 0)


def frac_solve(a, b):
    """Solve the square system a X = B exactly, with B given as rows (one
    per row of a) and X returned as rows; raises on singular a."""
    n = len(a)
    mat = [[Fraction(x) for x in row] + [Fraction(y) for y in rhs]
           for row, rhs in zip(a, b)]
    if _gauss_jordan(mat, n) < n:
        raise ValueError("singular system")
    return [row[n:] for row in mat]
