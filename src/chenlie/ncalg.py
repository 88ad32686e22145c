"""Exact scalars, words, and noncommutative polynomials.

The scalar tower has three levels, promoted automatically as needed:

    Fraction  ->  MPoly   (multivariate polynomial, rational coefficients)
              ->  RatFunc (MPoly numerator over a monic denominator in Q[t])

The operators ``+ - * / **`` are the tower's one arithmetic interface; MPoly
and RatFunc take an int or any tower scalar on either side, and a normalized
scalar is zero iff ``not c``.  :func:`coerce_scalar` normalizes at the
boundaries (``int`` becomes ``Fraction``).  Results always demote back to the
narrowest level (a constant MPoly becomes a Fraction, a RatFunc with unit
denominator becomes its numerator), so ``==`` against literals behaves as
expected and equality is canonical-form based.

Words over a fixed :class:`Alphabet` are plain tuples of letter indices; the
empty tuple is the unit word.  :class:`NcPoly` is a sparse word -> scalar
mapping supporting the concatenation product, the shuffle product, the
canonical inner product (words are orthonormal), and extraction of
homogeneous parts.  No floating point anywhere.

RatFunc normalization cancels the gcd of numerator and denominator with the
Euclidean algorithm over Q[t], except where the answer is known without it.
A one-term denominator c t^a (Delta = t for every diagonal, quasi-homogeneous
connection) shares with the numerator exactly t to the least t-exponent the
numerator has, so that power is cancelled directly.  Two RatFuncs over the
same denominator add their numerators and are normalized once, instead of
cross-multiplying into the squared denominator.

:func:`collect` is the one place where NcPoly terms are summed.  Sums,
differences, both products, truncated series products
(``chenint.ts_mul``) and the Gauss-Manin derivation (``melnikov.derive``)
each only generate (word, scalar) contributions and hand them to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "TVAR",
    "MPoly",
    "RatFunc",
    "Scalar",
    "var",
    "coerce_scalar",
    "scalar_dt",
    "scalar_str",
    "MAX_SCALAR_DIGITS",
    "Alphabet",
    "Word",
    "default_letters",
    "word_str",
    "NcPoly",
    "concat_mul",
    "shuffle",
    "shuffle_words",
    "collect",
    "inner",
    "homogeneous_part",
]

# The distinguished variable that rational-function denominators live in.
TVAR = "t"

# A monomial is a tuple of (variable name, exponent) pairs, sorted by name,
# all exponents positive.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged: dict = {}
    for v, e in a:
        merged[v] = merged.get(v, 0) + e
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_str(m: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


def _operand(x):
    """x as a tower scalar (an int becomes a Fraction), or None.  Dispatches
    on type(x): isinstance(x, Fraction) goes through ABCMeta for every MPoly."""
    t = type(x)
    if t is Fraction or t is MPoly or t is RatFunc:
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


def coerce_scalar(x) -> Scalar:
    """Normalize an int, Fraction, MPoly or RatFunc into the scalar union:
    the boundary check for values that arrive from outside the tower."""
    c = _operand(x)
    if c is None:
        raise TypeError(f"not a scalar: {x!r}")
    return c


def _add(a, b):
    b = _operand(b)
    if b is None:
        return NotImplemented
    if type(a) is RatFunc or type(b) is RatFunc:
        if type(a) is type(b) and a.den == b.den:
            return _make_ratfunc(_mpoly_add(a.num, b.num), a.den)
        na, da = _num_den(a)
        nb, db = _num_den(b)
        num = _mpoly_add(_mpoly_mul(na, db), _mpoly_mul(nb, da))
        return _make_ratfunc(num, _mpoly_mul(da, db))
    return _mpoly_add(a, b)


def _sub(a, b):
    b = _operand(b)
    return NotImplemented if b is None else _add(a, -b)


def _rsub(a, b):
    b = _operand(b)
    return NotImplemented if b is None else _add(-a, b)


def _mul(a, b):
    b = _operand(b)
    if b is None:
        return NotImplemented
    if type(a) is RatFunc or type(b) is RatFunc:
        na, da = _num_den(a)
        nb, db = _num_den(b)
        return _make_ratfunc(_mpoly_mul(na, nb), _mpoly_mul(da, db))
    return _mpoly_mul(a, b)


def _quotient(a, b) -> Scalar:
    """a / b for tower scalars, defined when b is rational or lies in Q(t)."""
    if type(b) is Fraction:
        if not b:
            raise ZeroDivisionError("scalar division by zero")
        return _mul(a, Fraction(1) / b)
    nb, db = _num_den(b)
    if not _is_tpoly(nb):
        raise ValueError(f"division by a scalar outside Q({TVAR}): {b}")
    na, da = _num_den(a)
    return _make_ratfunc(_mpoly_mul(na, db), _mpoly_mul(da, nb))


def _truediv(a, b):
    b = _operand(b)
    return NotImplemented if b is None else _quotient(a, b)


def _rtruediv(a, b):
    b = _operand(b)
    return NotImplemented if b is None else _quotient(b, a)


def _pow(a, n):
    """a ** n by squaring; a negative n inverts, as / does."""
    if not isinstance(n, int):
        return NotImplemented
    if n < 0:
        return _quotient(Fraction(1), _pow(a, -n))
    out: Scalar = Fraction(1)
    while n:
        if n & 1:
            out = _mul(a, out)
        n >>= 1
        if n:
            a = _mul(a, a)
    return out


class _ScalarOps:
    """The operators MPoly and RatFunc share, one implementation each (in
    the functions above, ``a`` is self).  A foreign operand (an NcPoly, a
    str, a float) gets NotImplemented, so ``c * poly`` still scales and
    ``w1 + "a"`` raises TypeError."""

    __slots__ = ()

    __add__ = __radd__ = _add
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    __pow__ = _pow

    def __str__(self):
        return scalar_str(self)

    __repr__ = __str__


class MPoly(_ScalarOps):
    """Multivariate polynomial with Fraction coefficients.

    Always non-constant: constructors demote constants to ``Fraction``.
    Immutable by convention; do not mutate ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Fraction]):
        # Trusted constructor: callers normalize first (see _make_mpoly).
        self.terms = dict(terms)

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_var(name: str) -> "MPoly":
        return MPoly({((name, 1),): Fraction(1)})

    def variables(self) -> tuple:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return tuple(sorted(seen))

    def __neg__(self):
        return MPoly({m: -c for m, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        # Canonical demotion means a genuine MPoly is never a constant.
        return False

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class RatFunc(_ScalarOps):
    """Quotient num/den with den a monic non-constant polynomial in t.

    Normalized: gcd(num, den) = 1 over Q(other vars)[t]; den monic in t.
    Constructors demote unit denominators, so a genuine RatFunc always has a
    non-trivial denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # Trusted constructor: use _make_ratfunc for normalization.
        self.num = num  # Fraction | MPoly, nonzero
        self.den = den  # MPoly in TVAR only, monic, degree >= 1

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return False

    def __hash__(self):
        return hash((self.num, self.den))


Scalar = Union[Fraction, MPoly, RatFunc]


def var(name: str) -> MPoly:
    """A polynomial indeterminate."""
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise ValueError(f"bad variable name: {name!r}")
    return MPoly.from_var(name)


def _make_mpoly(terms: dict) -> Scalar:
    """Normalize a mono->Fraction dict, demoting constants."""
    clean = {m: c for m, c in terms.items() if c != 0}
    if not clean:
        return Fraction(0)
    if len(clean) == 1 and () in clean:
        return clean[()]
    return MPoly(clean)


def _mpoly_terms(x: Scalar) -> dict:
    if type(x) is Fraction:
        return {(): x} if x else {}
    assert type(x) is MPoly
    return x.terms


def _mpoly_add(a, b) -> Scalar:
    out = dict(_mpoly_terms(a))
    for m, c in _mpoly_terms(b).items():
        out[m] = out[m] + c if m in out else c
    return _make_mpoly(out)


def _mpoly_mul(a, b) -> Scalar:
    ta, tb = _mpoly_terms(a), _mpoly_terms(b)
    out: dict = {}
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            m = _mono_mul(ma, mb)
            out[m] = out[m] + ca * cb if m in out else ca * cb
    return _make_mpoly(out)


# -- univariate helpers over Q[t], used for RatFunc normalization ---------
# A upoly is a tuple of Fractions, low degree first, no trailing zeros.


def _up_trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _up_to_scalar(u: tuple) -> Scalar:
    return _make_mpoly(
        {((TVAR, e),) if e else (): c for e, c in enumerate(u) if c}
    )


def _up_divmod(a: tuple, b: tuple) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(a) < len(b):
        return (), tuple(rem)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                rem[i + j] -= c * cb
    return _up_trim(q), _up_trim(rem)


def _up_gcd(a: tuple, b: tuple) -> tuple:
    while b:
        _, r = _up_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _is_tpoly(x) -> bool:
    if type(x) is Fraction:
        return True
    if type(x) is MPoly:
        return all(not m or (len(m) == 1 and m[0][0] == TVAR) for m in x.terms)
    return False


def _num_den(x: Scalar) -> tuple:
    """Split a scalar into (numerator, denominator in Q[t])."""
    if type(x) is RatFunc:
        return x.num, x.den
    return x, Fraction(1)


def _t_content_split(num) -> dict:
    """Group numerator terms by their non-t monomial part.

    Returns a dict: non-t monomial -> upoly in t.
    """
    groups: dict = {}
    for m, c in _mpoly_terms(num).items():
        te = 0
        rest = []
        for v, e in m:
            if v == TVAR:
                te = e
            else:
                rest.append((v, e))
        groups.setdefault(tuple(rest), {})[te] = c
    out = {}
    for rest, coeffs in groups.items():
        lst = [Fraction(0)] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            lst[e] = c
        out[rest] = _up_trim(lst)
    return out


def _t_exp(m: Mono) -> int:
    for v, e in m:
        if v == TVAR:
            return e
    return 0


def _make_laurent(num, den: MPoly) -> Scalar:
    """num / (c t^a), normalized as _make_ratfunc would: the gcd of a
    monomial denominator with the numerator is t^s, s = min(a, least
    t-exponent of num), so it is cancelled without the Euclidean gcd."""
    ((dmono, c),) = den.terms.items()
    a = dmono[0][1]
    terms = _mpoly_terms(num)
    s = min(a, min(_t_exp(m) for m in terms))
    if not s and c == 1:
        return RatFunc(num, den)
    if s:
        terms = {
            tuple((v, e - s) if v == TVAR else (v, e)
                  for v, e in m if v != TVAR or e != s): x
            for m, x in terms.items()
        }
    if c != 1:
        inv = Fraction(1) / c
        terms = {m: x * inv for m, x in terms.items()}
    num = _make_mpoly(terms)
    if a == s:
        return num
    return RatFunc(num, MPoly({((TVAR, a - s),): Fraction(1)}))


def _make_ratfunc(num, den) -> Scalar:
    """Normalize num/den: cancel the gcd, make den monic, demote."""
    if type(den) is Fraction:
        return _mpoly_mul(num, Fraction(1) / den)
    if not _is_tpoly(den):
        raise ValueError(f"denominator must be a polynomial in {TVAR}: {den}")
    if not num:
        return Fraction(0)
    if len(den.terms) == 1:
        return _make_laurent(num, den)
    dup = _t_content_split(den)[()]  # den lies in Q[t]: one group
    groups = _t_content_split(num)
    g = dup
    for u in groups.values():
        if len(g) <= 1:
            break
        g = _up_gcd(g, u)
    if len(g) > 1:
        dup, _ = _up_divmod(dup, g)
        new_terms: dict = {}
        for rest, u in groups.items():
            q, r = _up_divmod(u, g)
            assert not r
            for e, c in enumerate(q):
                if c:
                    m = _mono_mul(rest, ((TVAR, e),) if e else ())
                    new_terms[m] = c
        num = _make_mpoly(new_terms)
    lead = dup[-1]
    if lead != 1:
        dup = tuple(c / lead for c in dup)
        num = _mpoly_mul(num, Fraction(1) / lead)
    if len(dup) == 1:  # unit denominator after cancellation
        return num
    return RatFunc(num, _up_to_scalar(dup))


def scalar_dt(a) -> Scalar:
    """Formal derivative d/dt (all other indeterminates are constants)."""
    a = coerce_scalar(a)
    if type(a) is Fraction:
        return Fraction(0)
    if type(a) is MPoly:
        out: dict = {}
        for m, c in a.terms.items():
            for idx, (v, e) in enumerate(m):
                if v == TVAR:
                    rest = m[:idx] + m[idx + 1:]
                    nm = _mono_mul(rest, ((TVAR, e - 1),) if e > 1 else ())
                    out[nm] = out.get(nm, 0) + c * e
                    break
        return _make_mpoly(out)
    n, d = a.num, a.den
    return _make_ratfunc(scalar_dt(n) * d - n * scalar_dt(d), d * d)


# -- printing ---------------------------------------------------------------

# Most decimal digits a coefficient's numerator or denominator may reach:
# the printers' limit, Python's default for converting an int to text.
# Powers and products of scalars (parser) and magnus (freegrp) estimate
# their digits first, so 2^1000000000 never builds its 10^9 bits.
MAX_SCALAR_DIGITS = 4300


def _check_digits(what: str, log_height: float):
    """Refuse a computation whose coefficients' integers could pass
    MAX_SCALAR_DIGITS digits, from the log10 of their height bound."""
    digits = int(log_height) + 1
    if digits > MAX_SCALAR_DIGITS:
        raise ValueError(
            f"{what} could reach {digits} digits in a coefficient, over the "
            f"limit of {MAX_SCALAR_DIGITS}"
        )


def _mono_sort_key(m: Mono, varlist: tuple):
    exps = dict(m)
    return (_mono_degree(m), tuple(exps.get(v, 0) for v in varlist))


def _fraction_piece(c: Fraction, tail: str) -> tuple:
    """(sign, text) for coefficient c attached to monomial/word text."""
    sign = c < 0
    c = abs(c)
    if not tail:
        return sign, str(c)
    body = tail if c.numerator == 1 else f"{c.numerator}*{tail}"
    if c.denominator != 1:
        body = f"{body}/{c.denominator}"
    return sign, body


def _mpoly_pieces(p: MPoly):
    varlist = p.variables()
    order = sorted(p.terms, key=lambda m: _mono_sort_key(m, varlist))
    return [_fraction_piece(p.terms[m], _mono_str(m)) for m in order]


def _join_pieces(pieces) -> str:
    out = []
    for i, (sign, text) in enumerate(pieces):
        if i == 0:
            out.append(f"-{text}" if sign else text)
        else:
            out.append(f"- {text}" if sign else f"+ {text}")
    return " ".join(out)


def scalar_str(x) -> str:
    """Canonical text form: deterministic, exact, reparseable digits."""
    x = coerce_scalar(x)
    if type(x) is Fraction:
        return str(x)
    if type(x) is MPoly:
        return _join_pieces(_mpoly_pieces(x))
    num, den = x.num, x.den
    if type(num) is Fraction:
        npart = str(num) if num.denominator == 1 else f"({num})"
        if num < 0:
            npart = f"({num})"
    else:
        pieces = _mpoly_pieces(num)
        if len(pieces) == 1 and not pieces[0][0]:
            npart = pieces[0][1]
        else:
            npart = f"({_join_pieces(pieces)})"
    dterms = den.terms
    if len(dterms) == 1:
        dpart = _mono_str(next(iter(dterms)))
    else:
        dpart = f"({_join_pieces(_mpoly_pieces(den))})"
    return f"{npart}/{dpart}"


# -- alphabets and words -----------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct letter names; the order fixes all bases."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must have at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters: {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i: int) -> str:
        return self.letters[i]

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise KeyError(f"letter {name!r} not in alphabet {self.letters}")

    def words(self, k: int) -> Iterator[tuple]:
        """All words of length k in lexicographic order."""
        if k == 0:
            yield ()
            return
        m = len(self.letters)
        for prefix in self.words(k - 1):
            for i in range(m):
                yield prefix + (i,)


def default_letters(m: int) -> tuple:
    """x, y, z for m <= 3; x1..xm beyond."""
    if m < 1:
        raise ValueError("alphabet must have at least one letter")
    if m <= 3:
        return ("x", "y", "z")[:m]
    return tuple(f"x{i + 1}" for i in range(m))


Word = tuple  # tuple of letter indices


def word_str(alphabet: Alphabet, word: Word) -> str:
    """Run-length rendering: (0, 0, 1) over (x, y) -> 'x^2 y'."""
    if not word:
        return ""
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        name = alphabet[word[i]]
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return " ".join(parts)


class NcPoly:
    """Sparse noncommutative polynomial: word -> nonzero scalar."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, object] = ()):
        self.alphabet = alphabet
        clean: dict = {}
        for w, c in dict(terms).items():
            c = coerce_scalar(c)
            if c:
                clean[tuple(w)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def letter(cls, alphabet: Alphabet, i) -> "NcPoly":
        if isinstance(i, str):
            i = alphabet.index(i)
        if not 0 <= i < len(alphabet):
            raise IndexError(f"letter index {i} out of range")
        return cls(alphabet, {(i,): Fraction(1)})

    @classmethod
    def from_word(cls, alphabet: Alphabet, word: Iterable, coeff=1) -> "NcPoly":
        w = tuple(word)
        for i in w:
            if not 0 <= i < len(alphabet):
                raise IndexError(f"letter index {i} out of range")
        return cls(alphabet, {w: coeff})

    # -- basic queries ------------------------------------------------------

    def coeff(self, word: Iterable) -> Scalar:
        return self.terms.get(tuple(word), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple:
        return tuple(sorted({len(w) for w in self.terms}))

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def items(self):
        return self.terms.items()

    # -- linear structure ---------------------------------------------------

    def _check_alphabet(self, other: "NcPoly"):
        if self.alphabet != other.alphabet:
            raise ValueError(
                f"alphabet mismatch: {self.alphabet.letters} vs "
                f"{other.alphabet.letters}"
            )

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_alphabet(other)
        return collect(self.alphabet, other.terms.items(), self.terms)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_alphabet(other)
        negated = ((w, -c) for w, c in other.terms.items())
        return collect(self.alphabet, negated, self.terms)

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def scale(self, s) -> "NcPoly":
        s = coerce_scalar(s)
        if not s:
            return NcPoly.zero(self.alphabet)
        return NcPoly(self.alphabet, {w: s * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            return concat_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        return hash(
            (self.alphabet, frozenset((w, scalar_str(c)) for w, c in self.terms.items()))
        )

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            wtext = word_str(self.alphabet, w)
            if type(c) is Fraction:
                pieces.append(_fraction_piece(c, wtext))
            elif not wtext:
                pieces.append((False, f"({scalar_str(c)})"))
            elif type(c) is MPoly and len(c.terms) == 1:
                (m, f), = c.terms.items()
                if abs(f) == 1 and m:
                    pieces.append((f < 0, f"{_mono_str(m)}*{wtext}"))
                else:
                    pieces.append((False, f"({scalar_str(c)})*{wtext}"))
            else:
                pieces.append((False, f"({scalar_str(c)})*{wtext}"))
        return _join_pieces(pieces)

    __repr__ = __str__


# -- products and pairings ----------------------------------------------------


def collect(alphabet: Alphabet, pairs: Iterable, start: Mapping = ()) -> NcPoly:
    """The NcPoly sum of ``start`` (a word -> scalar mapping) and the
    (word, scalar) pairs: each pair is added with ``+``, and a word whose
    sum is zero is dropped.  Scalars must be normalized (Fraction, MPoly or
    RatFunc, never a bare int), as every operator result and every NcPoly
    coefficient is; the result skips the constructor's normalization pass."""
    out = dict(start)
    for w, c in pairs:
        if w in out:
            c = out[w] + c
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    p = NcPoly.__new__(NcPoly)
    p.alphabet = alphabet
    p.terms = out
    return p


def concat_mul(p: NcPoly, q: NcPoly) -> NcPoly:
    """Bilinear extension of word concatenation (the associative product)."""
    p._check_alphabet(q)
    return collect(p.alphabet, (
        (wp + wq, cp * cq)
        for wp, cp in p.terms.items()
        for wq, cq in q.terms.items()
    ))


# Word-pair shuffles, shared by every caller; emptied when it holds
# _SHUFFLE_CACHE_MAX entries, so a long-running process stays bounded.
_SHUFFLE_CACHE: dict = {}
_SHUFFLE_CACHE_MAX = 65_536


def shuffle_words(u: Word, v: Word) -> dict:
    """All order-preserving interleavings: word -> multiplicity.  Row i
    holds the shuffles of u[i:] with each suffix of v; the rows are filled
    from the last letter of u back and only two are kept, so no call
    recurses.  A row's words are ids: 0 is the empty word and ids[(a,
    rest)] the word a + rest, so prefixing a letter costs one lookup, not a
    copy of the word; only the last row's words are spelled out as tuples."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        return {u + v: 1}
    hit = _SHUFFLE_CACHE.get((u, v))
    if hit is not None:
        return hit
    ids: dict = {}
    suffix = [0] * (len(v) + 1)  # the ids of v's suffixes
    for j in range(len(v) - 1, -1, -1):
        suffix[j] = ids.setdefault((v[j], suffix[j + 1]), len(ids) + 1)
    below, rest = [{w: 1} for w in suffix], 0  # u's suffix is empty
    for i in range(len(u) - 1, -1, -1):
        rest = ids.setdefault((u[i], rest), len(ids) + 1)
        row = [None] * len(v) + [{rest: 1}]
        for j in range(len(v) - 1, -1, -1):
            row[j] = out = {}
            for a, part in ((u[i], below[j]), (v[j], row[j + 1])):
                for w, c in part.items():
                    w = ids.setdefault((a, w), len(ids) + 1)
                    out[w] = out.get(w, 0) + c
        below = row
    pairs = [None, *ids]  # ids count up from 1 in insertion order
    out = {}
    for w, c in below[0].items():
        word = []
        while w:
            a, w = pairs[w]
            word.append(a)
        out[tuple(word)] = c
    if len(_SHUFFLE_CACHE) >= _SHUFFLE_CACHE_MAX:
        _SHUFFLE_CACHE.clear()
    _SHUFFLE_CACHE[(u, v)] = out
    return out


def shuffle(p: NcPoly, q: NcPoly) -> NcPoly:
    """Bilinear extension of the word shuffle product."""
    p._check_alphabet(q)

    def pairs():
        for wp, cp in p.terms.items():
            for wq, cq in q.terms.items():
                c = cp * cq
                for w, mult in shuffle_words(wp, wq).items():
                    yield w, c * mult

    return collect(p.alphabet, pairs())


def inner(p: NcPoly, q: NcPoly) -> Scalar:
    """Canonical symmetric pairing: words are orthonormal."""
    p._check_alphabet(q)
    small, large = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    terms = large.terms
    return sum((c * terms[w] for w, c in small.terms.items() if w in terms), Fraction(0))


def homogeneous_part(p: NcPoly, k: int) -> NcPoly:
    """Restriction to words of length k."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    return NcPoly(
        p.alphabet, {w: c for w, c in p.terms.items() if len(w) == k}
    )
