"""Exact linear algebra helpers: Fraction elimination and GF(p) ranks.

The mod-p rank (p = 2^31 - 1) is an exact lower bound on the rank over Q:
any nonzero minor mod p is a nonzero minor over Q.  Callers combine it with
an upper bound (spanning-set size, or orthogonal-complement dimension) to
certify exact dimensions without big-rational elimination on large
matrices.
"""

from __future__ import annotations

from fractions import Fraction

MERSENNE31 = 2**31 - 1


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
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def frac_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fraction entries."""
    mat = [[Fraction(x) for x in row] for row in rows]
    return _gauss_jordan(mat, len(mat[0]) if mat else 0)


def frac_solve(a, b):
    """Solve the square system a x = b exactly; raises on singular a."""
    n = len(a)
    mat = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    if _gauss_jordan(mat, n) < n:
        raise ValueError("singular system")
    return [row[n] for row in mat]


def modp_rank(rows, p: int = MERSENNE31) -> int:
    """Rank over GF(p).  Rows are integers or Fractions with p-unit
    denominators (always the case for denominators far below p).

    Sparse echelon form: each row becomes a dict column -> nonzero residue
    and is reduced at its lowest column against the pivot row kept for that
    column, until it is zero or starts at a new pivot column."""
    pivots: dict = {}  # lowest column -> row scaled to 1 there
    for row in rows:
        vec = {}
        for j, x in enumerate(row):
            if isinstance(x, Fraction):
                r = x.numerator * pow(x.denominator, -1, p) % p
            else:
                r = int(x) % p
            if r:
                vec[j] = r
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(vec[col], -1, p)
                pivots[col] = {j: r * inv % p for j, r in vec.items()}
                break
            f = vec[col]
            for j, r in pivot.items():
                r = (vec.get(j, 0) - f * r) % p
                if r:
                    vec[j] = r
                else:
                    vec.pop(j, None)
    return len(pivots)
