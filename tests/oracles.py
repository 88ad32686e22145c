"""Slow reference implementations that the tests compare the library
against.

* ``is_lie_ree`` is Ree's criterion swept over every pair of words: each
  homogeneous part is orthogonal to every shuffle u * v with u, v
  nonempty.  ``liealg.is_lie`` asks the orthogonal projection instead.
* ``is_grouplike_sweep`` checks the shuffle relations of a series pair by
  pair.  ``chenint.is_grouplike`` asks whether the logarithm is Lie.
* ``shuffle_inner`` reads <p, u * v> word by word from the shuffle of u
  and v, without building the shuffle polynomial.
* ``path_series`` multiplies a model's generator series (inverted by the
  geometric series) along a path into the path's whole truncated series.
  ``chenint.evaluate`` runs Chen's identity over one common denominator
  on the coefficients the pairing needs instead.
* ``magnus_exp`` multiplies the exp series of each letter of a group word
  in turn, one dense truncated product per letter.  ``freegrp.magnus``
  substitutes X -> e^X - 1 into the integer Fox expansion instead.
* ``fraction_gauss_jordan`` reduces Fraction rows to reduced echelon form,
  scaling each pivot row to 1; ``fraction_rank`` and ``fraction_solve`` are
  ranks and solves through it.  ``_linalg`` clears denominators and runs a
  fraction-free elimination on ints instead.
* ``shuffle_words_tuples`` fills the same two-row table as
  ``ncalg.shuffle_words`` but rebuilds every partial word as a tuple, about
  k^3 / 3 letter operations for x^k * y; ``shuffle_words`` prefixes a
  letter to an interned word id instead.
* ``modp_rank`` is a rank over GF(p), p = 2^31 - 1: an exact lower bound
  on the rank over Q, since any nonzero minor mod p is a nonzero minor
  over Q.  Combined with an upper bound (spanning-set size, or
  orthogonal-complement dimension) it certifies exact dimensions without
  big-rational elimination on large matrices.
"""

from fractions import Fraction

from chenlie.chenint import IntegralModel, TruncSeries, ts_inv, ts_mul
from chenlie.ncalg import (
    NcPoly,
    Scalar,
    Word,
    homogeneous_part,
    shuffle_words,
)

MERSENNE31 = 2**31 - 1


def shuffle_inner(p: NcPoly, u: Word, v: Word) -> Scalar:
    """<p, u * v> for the shuffle u * v of two words, without building the
    shuffle polynomial."""
    terms = p.terms
    return sum((terms[w] * mult for w, mult in shuffle_words(u, v).items() if w in terms),
               Fraction(0))


def path_series(model: IntegralModel, delta) -> TruncSeries:
    """The truncated series attached to a free-group word: the ordered
    product of generator series and their inverses (inverted by the
    geometric series, not the antipode)."""
    if delta.alphabet != model.paths:
        raise ValueError("path word alphabet does not match the model")
    out = TruncSeries.one(model.forms, model.degree)
    inverses: dict = {}
    for i, e in delta.entries:
        if e == 1:
            f = model.series[i]
        else:
            f = inverses.get(i)
            if f is None:
                f = inverses[i] = ts_inv(model.series[i])
        out = ts_mul(out, f)
    return out


def magnus_exp(delta, n: int) -> TruncSeries:
    """Multiplicative image of a group word under letter -> exp(+-letter),
    truncated beyond degree n: one ts_mul by exp(e X_i) per letter, whose
    degree-d term is e^d X_i^d / d!."""
    out = TruncSeries.one(delta.alphabet, n)
    for i, e in delta.entries:
        terms = {(): Fraction(1)}
        fact = 1
        for d in range(1, n + 1):
            fact *= d
            terms[(i,) * d] = Fraction(e ** d, fact)
        out = ts_mul(out, TruncSeries(n, NcPoly(delta.alphabet, terms)))
    return out


def is_lie_ree(p: NcPoly) -> bool:
    """Ree's criterion: each homogeneous part is orthogonal to every
    shuffle u * v with u, v nonempty.  Cost grows like m^k per part."""
    if p.is_zero():
        return True
    if p.coeff(()):
        return False
    alphabet = p.alphabet
    for k in p.degrees():
        if k <= 1:
            continue
        part = homogeneous_part(p, k)
        for r in range(1, k):
            for u in alphabet.words(r):
                for v in alphabet.words(k - r):
                    if shuffle_inner(part, u, v):
                        return False
    return True


def is_grouplike_sweep(s) -> bool:
    """Shuffle relations: <s,u><s,v> = <s, u*v> for all nonempty word pairs
    with |u|+|v| <= degree.  Equivalently, ts_log(s) is a Lie series."""
    if s.poly.coeff(()) != 1:
        return False
    alphabet = s.poly.alphabet
    n = s.degree
    for r in range(1, n):
        for u in alphabet.words(r):
            cu = s.poly.coeff(u)
            for ls in range(1, n - r + 1):
                for v in alphabet.words(ls):
                    if cu * s.poly.coeff(v) != shuffle_inner(s.poly, u, v):
                        return False
    return True


def fraction_gauss_jordan(mat: list, ncols: int) -> int:
    """Reduce a list of Fraction rows in place over its first ncols columns;
    returns the rank.  Pivot rows come first, each scaled to 1 at its pivot,
    which is the only nonzero entry of its column."""
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


def fraction_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fraction entries."""
    mat = [[Fraction(x) for x in row] for row in rows]
    return fraction_gauss_jordan(mat, len(mat[0]) if mat else 0)


def fraction_solve(a, b):
    """Solve the square system a X = B exactly, with B given as rows (one
    per row of a) and X returned as rows; raises on singular a."""
    n = len(a)
    mat = [[Fraction(x) for x in row] + [Fraction(y) for y in rhs]
           for row, rhs in zip(a, b)]
    if fraction_gauss_jordan(mat, n) < n:
        raise ValueError("singular system")
    return [row[n:] for row in mat]


def shuffle_words_tuples(u: Word, v: Word) -> dict:
    """All order-preserving interleavings: word -> multiplicity.  Row i
    holds the shuffles of u[i:] with each suffix of v as tuples; the rows
    are filled from the last letter of u back and only two are kept."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        return {u + v: 1}
    below = [{v[j:]: 1} for j in range(len(v) + 1)]  # u's suffix is empty
    for i in range(len(u) - 1, -1, -1):
        row = [None] * len(v) + [{u[i:]: 1}]
        for j in range(len(v) - 1, -1, -1):
            row[j] = out = {}
            for a, part in ((u[i], below[j]), (v[j], row[j + 1])):
                for w, c in part.items():
                    w = (a,) + w
                    out[w] = out.get(w, 0) + c
        below = row
    return below[0]


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
