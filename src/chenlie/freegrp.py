"""Free-group words, their Magnus expansions, and the graded isomorphism
onto the free Lie algebra.

One integer expansion does the work: the Fox expansion, letter x_i ->
1 + X_i and inverse letter -> 1 - X_i + X_i^2 - ..., truncated at degree n,
over plain ints.  Appending a letter shifts the series by one letter, and an
inverse letter solves t = s - t X_i one degree at a time, so no two dense
series are ever multiplied.  ``magnus``, the expansion letter ->
exp(+-letter), is its image under phi(X_i) = e^{X_i} - 1, applied once (in
closed form for a power of one letter).  phi is the identity on the
associated graded, so both expansions have the same lowest nonzero degree k
and the same degree-k part, which ``leading_term`` reads off the Fox levels.  For a word in the k-th lower
central subgroup that part is the Lie element of the word's class in gr^k
of the free group (the Magnus embedding and the dimension subgroups of free
groups, as in Magnus, Karrass and Solitar, ch. 5; the Fox expansion as in
Fox, Free differential calculus I), and every iterated integral of a
degree-k form word along the loop is the inner product against it.

``leading_term`` deepens the truncation n = 1, 2, ... and stops at the first
nonzero part.  It stops by degree len(delta) at the latest: in a reduced
word with syllables x_{i_1}^{a_1} ... x_{i_r}^{a_r} (adjacent letters
distinct), only one choice of terms gives the degree-r word
X_{i_1} ... X_{i_r}, and its coefficient is a_1 ... a_r, not 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import factorial, lgamma, log, log10, prod

from .chenint import TruncSeries
from .ncalg import Alphabet, NcPoly, _check_digits

__all__ = [
    "GroupWord",
    "gw_mul",
    "gw_inv",
    "commutator",
    "magnus",
    "leading_term",
    "lcs_degree",
    "phi_inverse",
    "MAX_MAGNUS_WORK",
]

DEFAULT_LCS_BOUND = 8

# Most letter-steps one truncated expansion may take: the word's length times
# the number of words of length <= n over its letters, a bound on the terms
# each letter visits.  magnus and each degree leading_term deepens to check
# it first, so a long word or a large -N is refused at once.  It holds words
# of two or more letters to degree 17, where magnus at the limit takes
# 0.2-2.6 s, the most for short words at high degree (an 18-letter word over
# x, y to degree 14; a 1170-letter one to degree 8 takes 0.2 s), and powers
# of one letter, done in closed form, to 0.1 s (2-CPU container, Python 3.11).
MAX_MAGNUS_WORK = 600_000


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


def _check_work(delta: GroupWord, n: int):
    """Refuse an expansion of delta to degree n past MAX_MAGNUS_WORK."""
    m = len({i for i, _ in delta.entries})
    # past 2^64 words any nonempty word is over the limit
    words = n + 1 if m <= 1 else (m ** (min(n, 64) + 1) - 1) // (m - 1)
    work = len(delta) * words
    if work > MAX_MAGNUS_WORK:
        raise ValueError(
            f"expanding a {len(delta)}-letter group word to degree {n} could "
            f"take {work} steps, over the limit of {MAX_MAGNUS_WORK}"
        )


def _fox(delta: GroupWord, n: int) -> list:
    """The Fox expansion of delta truncated at n, as levels[d] = its
    degree-d part, word -> int (zeros may stay).  levels[d] holds the
    degree-d part of the product so far.  A letter x_i maps s to s + s X_i,
    filled from the top degree down so each level reads the old one below
    it; an inverse letter maps s to the t with t + t X_i = s, filled from the
    bottom up so each level reads the new one below it."""
    levels = [{(): 1}] + [{} for _ in range(n)]
    for i, e in delta.entries:
        a = (i,)
        for d in range(n - 1, -1, -1) if e == 1 else range(n):
            up = levels[d + 1]
            for w, c in levels[d].items():
                if c:
                    v = w + a
                    up[v] = up.get(v, 0) + e * c
    return levels


def magnus(delta: GroupWord, n: int) -> TruncSeries:
    """Multiplicative image of delta under letter -> exp(+-letter), all
    products truncated beyond degree n: phi(X_i) = e^{X_i} - 1 applied to
    the Fox expansion.  A run X_a^d of a Fox word maps to (e^{X_a} - 1)^d,
    whose X_a^l coefficient is d! S(l, d) / l!.  Adjacent runs of a Fox word
    have distinct letters, so each word of the image has one run per run of
    the Fox word it comes from: its integer numerators are summed, then
    divided once by the product of its run lengths' factorials."""
    if n < 1:
        raise ValueError("truncation degree must be >= 1")
    if delta.is_identity():  # no level to fill, whatever n is
        return TruncSeries.one(delta.alphabet, n)
    _check_work(delta, n)
    # a degree-l coefficient has a denominator dividing l! and a numerator
    # at most len(delta)^l
    _check_digits(f"expanding a {len(delta)}-letter group word to degree {n}",
                  max(lgamma(n + 1) / log(10), n * log10(len(delta))))
    letters = {i for i, _ in delta.entries}
    if len(letters) == 1:
        # x_i^k, whose Fox expansion (1 + X_i)^k maps to exp(k X_i): its runs
        # reach the degree, which only a word of one letter can take so high
        i, k = letters.pop(), sum(e for _, e in delta.entries)
        return TruncSeries(n, NcPoly(delta.alphabet, {
            (i,) * l: Fraction(k ** l, factorial(l)) for l in range(n + 1)}))
    surj = [[1] + [0] * n]  # surj[l][d] = d! S(l, d), maps of l onto d things
    for _ in range(n):
        surj.append([0] + [d * (surj[-1][d] + surj[-1][d - 1]) for d in range(1, n + 1)])
    nums: dict = {}
    for w, c in ((w, c) for level in _fox(delta, n) for w, c in level.items() if c):
        # (image word so far, numerator, degrees left to spend), run by run
        partial = [((), c, n - len(w))]
        for a, d in ((a, len(list(g))) for a, g in groupby(w)):
            partial = [(v + (a,) * l, num * surj[l][d], left - l + d)
                       for v, num, left in partial for l in range(d, d + left + 1)]
        for v, num, _ in partial:
            nums[v] = nums.get(v, 0) + num
    terms = {v: Fraction(num, prod(factorial(len(list(g))) for _, g in groupby(v)))
             for v, num in nums.items() if num}
    return TruncSeries(n, NcPoly(delta.alphabet, terms))


def leading_term(delta: GroupWord, n_max: int = DEFAULT_LCS_BOUND):
    """(k, degree-k part) for the lowest k <= n_max at which delta's Magnus
    expansion has a nonzero part, with integer coefficients; None when
    every part up to n_max vanishes (in particular for the identity)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n in range(1, min(n_max, len(delta)) + 1):
        _check_work(delta, n)
        top = {w: c for w, c in _fox(delta, n)[n].items() if c}
        if top:
            return n, NcPoly(delta.alphabet, top)
    return None


def lcs_degree(delta: GroupWord, n_max: int = DEFAULT_LCS_BOUND):
    """Smallest k <= n_max with a nonzero degree-k part in the Magnus
    expansion; None when every part up to n_max vanishes (in particular for
    the identity word).  This is the lower-central-series depth of the
    word's class whenever that depth is <= n_max."""
    lead = leading_term(delta, n_max)
    return None if lead is None else lead[0]


def phi_inverse(delta: GroupWord, n_max: int = DEFAULT_LCS_BOUND) -> NcPoly:
    """The leading homogeneous part of the Magnus expansion: the Lie
    element representing delta's class in gr^k of the free group."""
    if delta.is_identity():
        raise ValueError("the identity word has no leading Lie element")
    lead = leading_term(delta, n_max)
    if lead is None:
        raise ValueError(
            f"no nonzero homogeneous part up to degree {n_max}; raise n_max"
        )
    return lead[1]
