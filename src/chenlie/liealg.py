"""Bracket expressions, Hall bases, and the orthogonal decomposition of
each graded piece into Lie and shuffle parts, which decides Lie membership.

The degree-k slice of the free associative algebra splits as the direct sum
of the degree-k free Lie algebra and the span of shuffle products of lower
words, orthogonal under the canonical pairing.  ``decompose`` projects onto
the first summand by solving the Gram system of a Hall basis one multidegree
(letter counts) at a time: Hall elements are multihomogeneous and words of
different multidegrees are orthogonal.  ``is_lie`` asks for a zero shuffle
part.
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
    "MAX_HALL_ELEMENTS",
    "MAX_BLOCK",
]

# Most Hall elements up to degree k (_hall_levels) and in one multidegree block
# (decompose checks every block of its input before the first Gram matrix),
# each checked before the work it bounds, so that every accepted hall,
# decompose, is_lie or is_grouplike call ends in seconds.
MAX_HALL_ELEMENTS = 5_000
MAX_BLOCK = 45


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
    m, total = len(alphabet), 0
    for d in range(1, k + 1):
        # An empty degree still costs a pass, so each degree counts at least
        # one and the loop stops by degree MAX_HALL_ELEMENTS + 1.  On one
        # letter every degree past 1 is empty: no Witt number is needed.
        total += witt_number(m, d) if m > 1 else 1
        if total > MAX_HALL_ELEMENTS:
            raise ValueError(
                f"the Hall set on {m} letters up to degree {k} has at least "
                f"{total} elements (empty degrees count one), over the limit "
                f"of {MAX_HALL_ELEMENTS}"
            )
    levels = [tuple(LieTree.leaf(name) for name in alphabet.letters)]
    if m == 1:
        return tuple(levels) + ((),) * (k - 1)
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
    """Whether p is a Lie element: every homogeneous part has a zero shuffle
    part under ``decompose`` (a constant is all shuffle part).  The top degree
    goes first, so the Hall set's size limit is checked before any work."""
    parts = (homogeneous_part(p, k) for k in reversed(p.degrees()))
    return all(decompose(part)[1].is_zero() for part in parts)


@lru_cache(maxsize=64)
def _hall_blocks(alphabet: Alphabet, k: int) -> dict:
    """The degree-k Hall elements grouped by multidegree."""
    blocks: dict = {}
    for t in hall_basis(alphabet, k).elements:
        leaves = tuple(map(alphabet.index, t.leaves()))
        md = tuple(map(leaves.count, range(len(alphabet))))
        blocks[md] = blocks.get(md, ()) + (t,)
    return blocks


@lru_cache(maxsize=128)  # x,y to degree 8 and x,y,z to degree 5 have 94 blocks
def _projection_data(alphabet: Alphabet, md: tuple) -> tuple:
    """Hall expansions of multidegree md and the inverse of their Gram
    matrix, as rows."""
    elements = _hall_blocks(alphabet, sum(md)).get(md, ())
    n = len(elements)
    exps = tuple(expand(t, alphabet) for t in elements)
    # An independent family's Gram matrix is invertible; Hall coefficients are ints.
    ints = [{w: c.numerator for w, c in e.terms.items()} for e in exps]
    gram = [[sum(c * b[w] for w, c in a.items() if w in b) for b in ints]
            for a in ints]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return exps, frac_solve(gram, identity)


def decompose(p: NcPoly) -> tuple:
    """Split a homogeneous p into (lie, shf) with lie in the Hall span and
    shf orthogonal to it, by orthogonal projection one multidegree block at
    a time; each block's integer Gram matrix is inverted once and cached."""
    if p.is_zero():
        return p, p
    if not p.is_homogeneous():
        raise ValueError("decompose expects a homogeneous polynomial")
    k = p.max_degree()
    if k <= 1:  # a constant is all shuffle part, a letter sum all Lie part
        zero = NcPoly.zero(p.alphabet)
        return (p, zero) if k else (zero, p)
    mds = sorted({tuple(map(w.count, range(len(p.alphabet)))) for w in p.terms})
    blocks = _hall_blocks(p.alphabet, k)
    for md in mds:  # every block is checked before the first Gram matrix
        n = len(blocks.get(md, ()))
        if n > MAX_BLOCK:
            raise ValueError(
                f"multidegree {md} has {n} Hall elements, over the block "
                f"limit of {MAX_BLOCK}"
            )
    pairs = []
    for md in mds:
        exps, inv = _projection_data(p.alphabet, md)
        rhs = [inner(e, p) for e in exps]
        for e, row in zip(exps, inv):
            c = sum((r * h for r, h in zip(row, rhs)), Fraction(0))
            if c:
                pairs.extend((w, c * d) for w, d in e.terms.items())
    lie = collect(p.alphabet, pairs)
    return lie, p - lie


def hall_rank(alphabet: Alphabet, k: int) -> int:
    """Rank over Q of the Hall expansions' coefficient matrix (used to
    certify linear independence)."""
    words = list(alphabet.words(k))
    return frac_rank([[e.coeff(w) for w in words]
                      for e in hall_basis(alphabet, k).expansions()])
