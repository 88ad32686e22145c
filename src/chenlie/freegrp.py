"""Free-group words, the truncated Magnus expansion, and the graded
isomorphism onto the free Lie algebra.

A group word maps multiplicatively into the truncated tensor algebra by
letter -> exp(letter), inverse letter -> exp(-letter).  For a word in the
k-th lower central subgroup the expansion is 1 + (degree-k Lie element) +
higher terms; the degree-k part is the image of the word's class under the
inverse of the graded isomorphism phi, and every iterated integral of a
degree-k form word along the loop is the inner product against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chenint import TruncSeries, ts_mul
from .ncalg import Alphabet, NcPoly, homogeneous_part

__all__ = [
    "GroupWord",
    "gw_mul",
    "gw_inv",
    "commutator",
    "magnus",
    "lcs_degree",
    "phi_inverse",
]

DEFAULT_LCS_BOUND = 8


def _reduce(entries):
    stack = []
    for i, e in entries:
        if e not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {e!r}")
        if stack and stack[-1][0] == i and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((i, e))
    return tuple(stack)


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word in the generators of a free group.  Entries are
    (letter index, exponent) with exponent +1 or -1; reduction to canonical
    form happens on construction, so equality is group equality of words."""

    alphabet: Alphabet
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _reduce(self.entries))
        for i, _ in self.entries:
            if not 0 <= i < len(self.alphabet):
                raise ValueError(f"letter index {i} out of range")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "GroupWord":
        return cls(alphabet, ())

    @classmethod
    def generator(cls, alphabet: Alphabet, i: int) -> "GroupWord":
        return cls(alphabet, ((i, 1),))

    def is_identity(self) -> bool:
        return not self.entries

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        if not self.entries:
            return "1"
        parts = []
        for i, e in self.entries:
            name = self.alphabet.letters[i]
            parts.append(name if e == 1 else name + "^-1")
        return " ".join(parts)

    __repr__ = __str__


def _check_alphabets(a: GroupWord, b: GroupWord):
    if a.alphabet != b.alphabet:
        raise ValueError("group words over different alphabets")


def gw_mul(a: GroupWord, b: GroupWord) -> GroupWord:
    _check_alphabets(a, b)
    return GroupWord(a.alphabet, a.entries + b.entries)


def gw_inv(a: GroupWord) -> GroupWord:
    return GroupWord(a.alphabet, tuple((i, -e) for i, e in reversed(a.entries)))


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    """(a, b) = a b a^-1 b^-1."""
    _check_alphabets(a, b)
    return GroupWord(
        a.alphabet, a.entries + b.entries + gw_inv(a).entries + gw_inv(b).entries
    )


def _exp_letter(alphabet: Alphabet, i: int, sign: int, n: int) -> TruncSeries:
    """exp(sign * letter_i) truncated at degree n, written out directly:
    the degree-d term is sign^d letter^d / d!."""
    terms = {(): Fraction(1)}
    fact = 1
    for d in range(1, n + 1):
        fact *= d
        terms[(i,) * d] = Fraction(sign ** d, fact)
    return TruncSeries(n, NcPoly(alphabet, terms))


def magnus(delta: GroupWord, n: int) -> TruncSeries:
    """Multiplicative image of delta under letter -> exp(+-letter), all
    products truncated beyond degree n."""
    if n < 1:
        raise ValueError("truncation degree must be >= 1")
    out = TruncSeries.one(delta.alphabet, n)
    cache: dict = {}
    for i, e in delta.entries:
        f = cache.get((i, e))
        if f is None:
            f = cache[(i, e)] = _exp_letter(delta.alphabet, i, e, n)
        out = ts_mul(out, f)
    return out


def _leading_degree(series: TruncSeries):
    """Lowest degree >= 1 with a nonzero part; None when there is none."""
    return min((len(w) for w in series.poly.terms if w), default=None)


def lcs_degree(delta: GroupWord, n_max: int = DEFAULT_LCS_BOUND):
    """Smallest k <= n_max with a nonzero degree-k part in the Magnus
    expansion; None when every part up to n_max vanishes (in particular for
    the identity word).  This is the lower-central-series depth of the
    word's class whenever that depth is <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if delta.is_identity():
        return None
    return _leading_degree(magnus(delta, n_max))


def phi_inverse(delta: GroupWord, n_max: int = DEFAULT_LCS_BOUND) -> NcPoly:
    """The leading homogeneous part of the Magnus expansion: the Lie
    element representing delta's class in gr^k of the free group.  One
    Magnus series to degree n_max gives both k and the part, since
    truncation above k leaves the degree-k part unchanged."""
    if delta.is_identity():
        raise ValueError("the identity word has no leading Lie element")
    series = magnus(delta, n_max)
    k = _leading_degree(series)
    if k is None:
        raise ValueError(
            f"no nonzero homogeneous part up to degree {n_max}; raise n_max"
        )
    return homogeneous_part(series.poly, k)
