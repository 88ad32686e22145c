"""Bracket expressions, Hall bases, the Lie-element criterion, and the
orthogonal decomposition of each graded piece into Lie and shuffle parts.

The degree-k slice of the free associative algebra splits as the direct sum
of the degree-k free Lie algebra and the span of shuffle products of lower
words, and the two summands are orthogonal under the canonical pairing.
``is_lie`` tests membership in the first summand by orthogonality to all
shuffles (Ree's criterion); ``decompose`` projects onto it by solving the
Gram system of a Hall basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._linalg import frac_rank, frac_solve
from .ncalg import (
    Alphabet,
    NcPoly,
    collect,
    concat_mul,
    homogeneous_part,
    inner,
    is_zero_scalar,
    scalar_add,
    scalar_mul,
    shuffle_inner,
)

__all__ = [
    "LieTree",
    "HallBasis",
    "expand",
    "hall_basis",
    "witt_number",
    "is_lie",
    "decompose",
    "hall_rank",
]


class LieTree:
    """A bracket expression: a leaf letter or a pair [left, right]."""

    __slots__ = ("letter", "left", "right", "degree")

    def __init__(self, letter=None, left=None, right=None):
        if letter is not None:
            if left is not None or right is not None:
                raise ValueError("a leaf has no subtrees")
            self.letter = letter
            self.left = None
            self.right = None
            self.degree = 1
        else:
            if left is None or right is None:
                raise ValueError("a bracket needs both subtrees")
            self.letter = None
            self.left = left
            self.right = right
            self.degree = left.degree + right.degree

    @classmethod
    def leaf(cls, name: str) -> "LieTree":
        return cls(letter=name)

    @classmethod
    def bracket(cls, left: "LieTree", right: "LieTree") -> "LieTree":
        return cls(left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.letter is not None

    def leaves(self):
        if self.is_leaf:
            yield self.letter
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def __eq__(self, other):
        if not isinstance(other, LieTree):
            return NotImplemented
        if self.is_leaf != other.is_leaf:
            return False
        if self.is_leaf:
            return self.letter == other.letter
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        if self.is_leaf:
            return hash(("leaf", self.letter))
        return hash(("br", self.left, self.right))

    def __str__(self):
        if self.is_leaf:
            return self.letter
        return f"[{self.left},{self.right}]"

    __repr__ = __str__


def expand(tree: LieTree, alphabet: Alphabet) -> NcPoly:
    """Recursive expansion with [p, q] = pq - qp; homogeneous of the
    tree degree."""
    if tree.is_leaf:
        return NcPoly.letter(alphabet, alphabet.index(tree.letter))
    p = expand(tree.left, alphabet)
    q = expand(tree.right, alphabet)
    return concat_mul(p, q) - concat_mul(q, p)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def witt_number(m: int, k: int) -> int:
    """Dimension of the degree-k piece of the free Lie algebra on m
    letters: (1/k) * sum over d | k of mu(d) * m^(k/d)."""
    total = sum(_mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0)
    assert total % k == 0
    return total // k


@dataclass(frozen=True)
class HallBasis:
    """A basic-commutator basis of the degree-k free Lie algebra slice."""

    alphabet: Alphabet
    degree: int
    elements: tuple

    def expansions(self) -> tuple:
        return tuple(expand(t, self.alphabet) for t in self.elements)


@lru_cache(maxsize=64)
def _hall_levels(alphabet: Alphabet, k: int) -> tuple:
    """Hall set levels 1..k.

    Total order: degree first, then construction sequence.  A bracket
    [u, v] belongs to the set iff u < v and v is either a letter or a
    bracket [v1, v2] with v1 <= u.
    """
    levels = [tuple(LieTree.leaf(name) for name in alphabet.letters)]
    rank = {t: i for i, t in enumerate(levels[0])}
    for d in range(2, k + 1):
        made = []
        for du in range(1, d // 2 + 1):
            dv = d - du
            for u in levels[du - 1]:
                for v in levels[dv - 1]:
                    if rank[u] >= rank[v]:
                        continue
                    if not v.is_leaf and rank[v.left] > rank[u]:
                        continue
                    made.append(LieTree.bracket(u, v))
        for t in made:
            rank[t] = len(rank)
        levels.append(tuple(made))
    return tuple(levels)


def hall_basis(alphabet: Alphabet, k: int) -> HallBasis:
    """The degree-k slice of the Hall set; its size is the Witt number."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    elements = _hall_levels(alphabet, k)[k - 1]
    assert len(elements) == witt_number(len(alphabet), k)
    return HallBasis(alphabet, k, elements)


def is_lie(p: NcPoly) -> bool:
    """Ree's criterion: each homogeneous part is orthogonal to every
    shuffle u * v with u, v nonempty.  Cost grows like m^k per part."""
    if p.is_zero():
        return True
    if not is_zero_scalar(p.coeff(())):
        return False
    alphabet = p.alphabet
    for k in p.degrees():
        if k <= 1:
            continue
        part = homogeneous_part(p, k)
        for r in range(1, k):
            for u in alphabet.words(r):
                for v in alphabet.words(k - r):
                    if not is_zero_scalar(shuffle_inner(part, u, v)):
                        return False
    return True


@lru_cache(maxsize=64)
def _projection_data(alphabet: Alphabet, k: int) -> tuple:
    """Hall expansions and the inverse Gram matrix for degree k."""
    basis = hall_basis(alphabet, k)
    exps = basis.expansions()
    n = len(exps)
    gram = [[inner(exps[i], exps[j]) for j in range(n)] for i in range(n)]
    # Invert by solving against the identity columns; the Gram matrix of a
    # linearly independent family under a positive-definite pairing is
    # invertible.
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(frac_solve(gram, e))
    inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    return exps, inv


def decompose(p: NcPoly) -> tuple:
    """Split a homogeneous p into (lie, shf) with lie in the Hall span and
    shf orthogonal to it, via orthogonal projection.  Solving the Gram
    system is cubic in the Witt number, fine at desk scale."""
    if p.is_zero():
        return p, p
    if not p.is_homogeneous():
        raise ValueError("decompose expects a homogeneous polynomial")
    k = p.max_degree()
    zero = NcPoly.zero(p.alphabet)
    if k == 0:
        return zero, p
    if k == 1:
        return p, zero
    exps, inv = _projection_data(p.alphabet, k)
    rhs = [inner(e, p) for e in exps]
    pairs = []
    for e, row in zip(exps, inv):
        c = Fraction(0)
        for a, b in zip(row, rhs):
            c = scalar_add(c, scalar_mul(a, b))
        if not is_zero_scalar(c):
            pairs.extend((w, scalar_mul(c, d)) for w, d in e.terms.items())
    lie = collect(p.alphabet, pairs)
    return lie, p - lie


def hall_rank(alphabet: Alphabet, k: int) -> int:
    """Rank over Q of the Hall expansions' coefficient matrix (used to
    certify linear independence)."""
    basis = hall_basis(alphabet, k)
    words = list(alphabet.words(k))
    pos = {w: i for i, w in enumerate(words)}
    rows = []
    for e in basis.expansions():
        row = [Fraction(0)] * len(words)
        for w, c in e.items():
            row[pos[w]] = c
        rows.append(row)
    return frac_rank(rows)
