"""Truncated tensor-series arithmetic and iterated-integral models.

An integral model assigns to each path generator a group-like truncated
series over a form alphabet; the pairing of that series against a word of
forms is the iterated integral of the word along the path.  The composition,
inversion, constant, and shuffle axioms then hold by construction:

  A1  integrating over the trivial path picks out the constant term, and
      the empty word integrates to 1 along every path;
  A2  integrals along a concatenated path split as a convolution over
      prefix/suffix factorizations;
  A3  reversing a path reverses the word and flips the sign per letter;
  A4  pointwise products of integrals satisfy the shuffle relations.

The canonical model sends each generator to the exponential of its own
letter, so a length-n power of the matching form integrates to 1/n! and any
word containing a foreign form integrates to 0.

``evaluate`` never builds the path's whole series.  It runs Chen's identity
letter by letter on the coefficients omega needs: the prefixes of omega's
words, read against the generator series on their infixes.  Inverse letters
use the antipode of the shuffle Hopf algebra, <G^-1, v> = (-1)^|v|
<G, reversed v>, valid because model series are group-like.  A model keeps
each series over the common denominator D of its coefficients, so the Chen
steps multiply ints and the answer divides once, by the product of the D of
the path's letters (a series with a symbolic coefficient keeps D = 1).  The
full product of the path's series stays in the tests, as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, lgamma, log

from .liealg import is_lie
from .ncalg import (
    Alphabet,
    NcPoly,
    Scalar,
    Word,
    _check_digits,
    coerce_scalar,
    collect,
    var,
)

__all__ = [
    "TruncSeries",
    "ts_mul",
    "ts_exp",
    "ts_log",
    "ts_inv",
    "is_grouplike",
    "IntegralModel",
    "canonical_model",
    "evaluate",
    "PairingTable",
    "pair_graded",
    "MAX_CHEN_PAIRS",
]

# Most (slot, split) pairs one evaluate may visit, checked before its first
# Chen step: the loop's length times the sum of |u| + 1 over the prefixes u
# of omega's words.  x^200 along x visits 20 301.  The worst shape is one
# letter at high degree, whose step setup slices every infix: x^564 along
# x, the most, takes ~1 s.  Long loops, whose ints grow by log2 D bits a
# letter, take ~0.5 s at the limit (x^10 666 against x^4).
MAX_CHEN_PAIRS = 160_000


def _truncated(p: NcPoly, n: int) -> NcPoly:
    return NcPoly(p.alphabet, {w: c for w, c in p.terms.items() if len(w) <= n})


@dataclass(frozen=True)
class TruncSeries:
    """An NcPoly with all terms of degree <= degree; higher terms are
    silently dropped by every operation."""

    degree: int
    poly: NcPoly

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("truncation degree must be >= 0")
        if self.poly.max_degree() > self.degree:
            object.__setattr__(self, "poly", _truncated(self.poly, self.degree))

    @classmethod
    def one(cls, alphabet: Alphabet, degree: int) -> "TruncSeries":
        return cls(degree, NcPoly.one(alphabet))

    def coeff(self, word) -> Scalar:
        return self.poly.coeff(word)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return ts_mul(self, other)
        return NotImplemented

    def __str__(self):
        return str(self.poly)

    __repr__ = __str__


def ts_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Concatenation product, truncated to the smaller degree.  The right
    factor's terms are grouped by degree, so no pair of words whose lengths
    add up to more than the truncation degree is visited."""
    n = min(a.degree, b.degree)
    a.poly._check_alphabet(b.poly)
    by_degree: list = [[] for _ in range(n + 1)]
    for wb, cb in b.poly.terms.items():
        if len(wb) <= n:
            by_degree[len(wb)].append((wb, cb))
    pairs = (
        (wa + wb, ca * cb)
        for wa, ca in a.poly.terms.items()
        for d in range(n + 1 - len(wa))
        for wb, cb in by_degree[d]
    )
    return TruncSeries(n, collect(a.poly.alphabet, pairs))


def _as_poly_and_degree(p, degree):
    if isinstance(p, TruncSeries):
        return p.poly, p.degree if degree is None else min(p.degree, degree)
    if degree is None:
        raise ValueError("a truncation degree is required for plain polynomials")
    return p, degree


def _power_series(u: NcPoly, n: int, coeffs: list) -> TruncSeries:
    """sum over i of coeffs[i] u^i, truncated at degree n, for u with zero
    constant term and coeffs of length n + 1.  Stops at the first power
    of u that vanishes; every later one does too."""
    base = TruncSeries(n, u)
    power = TruncSeries.one(u.alphabet, n)
    out = power.poly.scale(coeffs[0])
    for c in coeffs[1:]:
        power = ts_mul(power, base)
        if power.poly.is_zero():
            break
        out = out + power.poly.scale(c)
    return TruncSeries(n, out)


def ts_exp(p, degree: int = None) -> TruncSeries:
    """exp of a series with zero constant term."""
    poly, n = _as_poly_and_degree(p, degree)
    if poly.coeff(()):
        raise ValueError("ts_exp needs a zero constant term")
    return _power_series(poly, n, [Fraction(1, factorial(i)) for i in range(n + 1)])


def ts_log(s, degree: int = None) -> TruncSeries:
    """log of a series with constant term 1."""
    poly, n = _as_poly_and_degree(s, degree)
    if poly.coeff(()) != 1:
        raise ValueError("ts_log needs constant term 1")
    coeffs = [Fraction(0)] + [Fraction((-1) ** (i + 1), i) for i in range(1, n + 1)]
    return _power_series(poly - NcPoly.one(poly.alphabet), n, coeffs)


def ts_inv(s, degree: int = None) -> TruncSeries:
    """Multiplicative inverse of a series with constant term 1, by the
    geometric series in (1 - s)."""
    poly, n = _as_poly_and_degree(s, degree)
    if poly.coeff(()) != 1:
        raise ValueError("ts_inv needs constant term 1")
    return _power_series(NcPoly.one(poly.alphabet) - poly, n, [Fraction(1)] * (n + 1))


def is_grouplike(s: TruncSeries) -> bool:
    """Whether s is group-like: constant term 1 and a Lie logarithm, by
    Ree's theorem; equivalently <s,u><s,v> = <s, u*v> for all nonempty
    word pairs with |u|+|v| <= degree.

    When every word of s is a power of one letter X, s lies in the
    commutative sub-Hopf algebra of series in X, whose group-like elements
    are exactly exp(c X); so s is group-like iff <s, X^j> = c^j / j! for
    every j <= degree, with c = <s, X>."""
    letters = {a for w in s.poly.terms for a in w}
    if len(letters) > 1:
        return s.poly.coeff(()) == 1 and is_lie(ts_log(s).poly)
    x = letters.pop() if letters else 0
    c, power = s.poly.coeff((x,)), Fraction(1)
    for j in range(s.degree + 1):
        if s.poly.coeff((x,) * j) - power:
            return False
        power = power * (c * Fraction(1, j + 1))
    return True


@dataclass(frozen=True)
class IntegralModel:
    """Group-like series per path generator; evaluation happens over the
    form alphabet.  ``scaled`` holds each series over its common
    denominator, as (D, {word: D c}), for ``evaluate``."""

    paths: Alphabet
    forms: Alphabet
    degree: int
    series: tuple
    scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.series) != len(self.paths):
            raise ValueError("one series per path generator is required")
        for s in self.series:
            if s.poly.alphabet != self.forms or s.degree != self.degree:
                raise ValueError("series must share the form alphabet and degree")
            if not is_grouplike(s):
                raise ValueError("generator series must be group-like")
        object.__setattr__(self, "scaled", tuple(
            _over_common_denominator(s.poly.terms) for s in self.series))

    def generator_series(self, i: int) -> TruncSeries:
        return self.series[i]


def _over_common_denominator(terms: dict) -> tuple:
    """(D, {word: D c}) for D the lcm of the coefficients' denominators, so
    that every D c is an int; (1, terms) when a coefficient is symbolic."""
    if any(type(c) is not Fraction for c in terms.values()):
        return 1, terms
    d = lcm(*(c.denominator for c in terms.values()))
    return d, {w: c.numerator * (d // c.denominator) for w, c in terms.items()}


def canonical_model(alphabet: Alphabet, degree: int) -> IntegralModel:
    """Each generator maps to the exponential of its own letter, written out
    as sum over j <= degree of X_i^j / j!.  A degree whose 1/degree! would
    pass MAX_SCALAR_DIGITS digits is refused first."""
    _check_digits(f"the canonical model to degree {degree}",
                  lgamma(max(degree, 0) + 1) / log(10))
    series = tuple(
        TruncSeries(degree, NcPoly(alphabet, {
            (i,) * j: Fraction(1, factorial(j)) for j in range(degree + 1)}))
        for i in range(len(alphabet))
    )
    return IntegralModel(alphabet, alphabet, degree, series)


def evaluate(model: IntegralModel, delta, omega: NcPoly) -> Scalar:
    """The iterated integral of omega along delta: the pairing of the
    path's series S against omega.  Linear in omega.

    Only the coefficients the answer needs are computed.  The state holds
    q <S, u> for u in the prefix closure of omega's words (the empty word
    included), starting from the trivial path with q = 1.  Each path letter
    with series G, whose coefficients have common denominator D, updates it
    by Chen's identity times D,
    q D <S G, w> = sum over w = u v of q <S, u> D <G, v>,
    and multiplies q by D; so for a rational model the state stays ints.
    The step reads G on the infixes v of omega's words only.  An inverse
    letter reads the antipode, <G^-1, v> = (-1)^|v| <G, reversed v>; that
    holds because every generator series of a model is group-like.  The
    answer pairs omega with the state and divides once by q.  A word of
    length k costs O(k^2) multiplications per path letter, and the total
    is checked against MAX_CHEN_PAIRS before the first step.
    """
    if omega.alphabet != model.forms:
        raise ValueError("form polynomial alphabet does not match the model")
    if omega.max_degree() > model.degree:
        raise ValueError(
            f"word degree {omega.max_degree()} exceeds truncation {model.degree}"
        )
    if delta.alphabet != model.paths:
        raise ValueError("path word alphabet does not match the model")
    slots = {(): 0}
    for w in omega.terms:
        for j in range(1, len(w) + 1):
            slots.setdefault(w[:j], len(slots))
    pairs = len(delta) * sum(len(u) + 1 for u in slots)
    if pairs > MAX_CHEN_PAIRS:
        raise ValueError(
            f"evaluating along a {len(delta)}-letter loop could visit {pairs} "
            f"slot pairs, over the limit of {MAX_CHEN_PAIRS}"
        )
    state: list = [1] + [0] * (len(slots) - 1)
    q = 1
    steps: dict = {}
    for letter in delta.entries:
        d, terms = model.scaled[letter[0]]
        step = steps.get(letter)
        if step is None:
            step = steps[letter] = _chen_step(terms, letter[1], slots)
        state = [sum(state[i] * c for i, c in row) for row in step]
        q *= d
    total = sum((c * state[slots[w]] for w, c in omega.terms.items()), Fraction(0))
    return total * Fraction(1, q)


def _chen_step(terms: dict, sign: int, slots: dict) -> list:
    """Per slot word w, the (slot of u, D <G^sign, v>) pairs over the
    splits w = u v with a nonzero coefficient, for G's scaled terms."""
    step = []
    for w in slots:
        pairs = []
        for j in range(len(w) + 1):
            v = w[j:]
            if sign == 1:
                c = terms.get(v)
            else:  # the antipode
                c = terms.get(v[::-1])
                if c is not None and len(v) % 2:
                    c = -c
            if c is not None:
                pairs.append((slots[w[:j]], c))
        step.append(pairs)
    return step


@dataclass(frozen=True)
class PairingTable:
    """Base integrals v[i][j] = integral of form j along generator i.
    Entries may be symbolic indeterminates."""

    paths: Alphabet
    forms: Alphabet
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != len(self.paths):
            raise ValueError("one row per path generator is required")
        for row in self.entries:
            if len(row) != len(self.forms):
                raise ValueError("one column per form is required")
        object.__setattr__(self, "entries", tuple(
            tuple(coerce_scalar(e) for e in row) for row in self.entries))

    @classmethod
    def symbolic(cls, paths: Alphabet, forms: Alphabet, prefix: str = "v"):
        """Independent indeterminates v_<generator>_<form>."""
        entries = tuple(
            tuple(var(f"{prefix}_{p}_{f}") for f in forms.letters)
            for p in paths.letters
        )
        return cls(paths, forms, entries)

    @classmethod
    def identity(cls, alphabet: Alphabet):
        """v[i][j] = 1 if i == j else 0 (paths and forms share letters)."""
        m = len(alphabet)
        entries = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(m))
            for i in range(m)
        )
        return cls(alphabet, alphabet, entries)


def pair_graded(table: PairingTable, delta, omega: Word) -> Scalar:
    """Leading-order iterated integral of a degree-k word of forms along a
    path whose class first appears in degree k: the lowest graded part of
    the path word, paired against the word through the base-integral table.

    The path word must have no nonzero graded part below k; its degree-k
    part may vanish (empty sum, result 0).
    """
    from . import freegrp  # deferred: freegrp builds on this module

    word = tuple(omega)
    k = len(word)
    if any(not 0 <= j < len(table.forms) for j in word):
        raise ValueError("form index out of range")
    if delta.alphabet != table.paths:
        raise ValueError("path word alphabet does not match the table")
    if k == 0:
        return Fraction(1)
    lead = freegrp.leading_term(delta, k)
    if lead is None:
        return Fraction(0)
    j, part = lead
    if j < k:
        raise ValueError(
            f"path word has a nonzero part in degree {j} < word length {k}"
        )
    total: Scalar = Fraction(0)
    for w, a in part.items():
        prod: Scalar = a
        for s in range(k):
            prod = prod * table.entries[w[s]][word[s]]
        total = total + prod
    return total
