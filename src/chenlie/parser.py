"""Expression parsing for the command-line tools.

Two expression kinds share one tokenizer:

* polynomial expressions — words of letters with exact scalar coefficients,
  ``[a,b]`` for the bracket ab - ba, ``#`` for the shuffle product, ``*``
  or juxtaposition for concatenation, ``/`` for division by a scalar;
* group words — juxtaposition for the group product, ``^-1`` (or any
  integer power) for inverses, ``(a,b)`` for the commutator a b a^-1 b^-1,
  ``1`` for the identity.

Identifier resolution: with an explicit alphabet, letters are exactly the
alphabet members and every other identifier is a scalar indeterminate;
without one, declared scalar names (plus the connection variable t) are
scalars and all remaining identifiers become letters, alphabetized.

The printers in the algebra modules emit text this grammar accepts, and
parsing their output reproduces the original value exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log10

from .freegrp import GroupWord, commutator, gw_inv
from .liealg import LieTree
from .ncalg import TVAR, Alphabet, NcPoly, shuffle, var
from .ncalg import MAX_SCALAR_DIGITS, _check_digits, _mpoly_terms, _num_den

__all__ = [
    "MAX_NESTING",
    "MAX_GW_LETTERS",
    "MAX_POLY_LETTERS",
    "MAX_SCALAR_DIGITS",
    "ParseError",
    "parse",
    "parse_poly",
    "parse_gw",
    "parse_lie",
    "parse_scalar",
    "collect_idents",
    "build_poly",
    "build_gw",
    "build_lietree",
    "infer_alphabet",
]


# Deepest nesting the parser accepts.  Each parenthesis or bracket is one
# level, and so is each further "#" or "/" of a chain, since those build
# left-nested trees.  The parser takes five stack frames per parenthesis
# and build_poly, build_gw and build_lietree at most three per level, so
# accepted input stays well inside Python's default recursion limit (1000).
MAX_NESTING = 100

# Most letters a group word may have before free reduction.  A commutator
# doubles the length of its arguments, so nesting alone, well inside
# MAX_NESTING, could ask for more letters than memory holds; build_gw checks
# this bound on the syntax tree before it builds anything.
MAX_GW_LETTERS = 100_000

# Most letters, summed over its words, a polynomial expression may reach
# before it is built.  Powers, products and shuffles multiply the number of
# words, so a short expression such as (x+y)^40 could ask for more words
# than memory holds; build_poly checks this bound on the syntax tree.
MAX_POLY_LETTERS = 1_000_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*/^#()[],"


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", one of _SYMBOLS, or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PInt:
    value: Fraction


@dataclass(frozen=True)
class PIdent:
    name: str


@dataclass(frozen=True)
class PPow:
    base: object
    exponent: int


@dataclass(frozen=True)
class PProd:
    factors: tuple


@dataclass(frozen=True)
class PDiv:
    num: object
    den: object


@dataclass(frozen=True)
class PBracket:
    left: object
    right: object


@dataclass(frozen=True)
class PShuffle:
    left: object
    right: object


@dataclass(frozen=True)
class PSum:
    terms: tuple  # of (sign, node), sign in {+1, -1}


@dataclass(frozen=True)
class GIdent:
    name: str


@dataclass(frozen=True)
class GOne:
    pass


@dataclass(frozen=True)
class GPow:
    base: object
    exponent: int


@dataclass(frozen=True)
class GComm:
    left: object
    right: object


@dataclass(frozen=True)
class GProd:
    factors: tuple


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            self.fail(f"expected {kind!r}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)

    def nest(self):
        """Enter one nesting level at the current token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # -- polynomial grammar -------------------------------------------------
    #
    # sum      := ["-"] shuffle (("+" | "-") shuffle)*
    # shuffle  := product ("#" product)*
    # product  := postfix (("*" postfix | "/" postfix | postfix))*
    # postfix  := atom ["^" int]
    # atom     := int | ident | "(" sum ")" | "[" sum "," sum "]"

    def parse_sum(self):
        terms = []
        sign = 1
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        terms.append((sign, self.parse_shuffle()))
        while self.cur.kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.parse_shuffle()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return PSum(tuple(terms))

    def parse_shuffle(self):
        depth = self.depth
        node = self.parse_product()
        while self.cur.kind == "#":
            self.nest()
            self.advance()
            node = PShuffle(node, self.parse_product())
        self.depth = depth
        return node

    _ATOM_STARTS = ("int", "ident", "(", "[")

    def parse_product(self):
        depth = self.depth
        node = self.parse_postfix()
        while True:
            if self.cur.kind == "*":
                self.advance()
                node = self._mul(node, self.parse_postfix())
            elif self.cur.kind == "/":
                self.nest()
                self.advance()
                node = PDiv(node, self.parse_postfix())
            elif self.cur.kind in self._ATOM_STARTS:
                node = self._mul(node, self.parse_postfix())
            else:
                self.depth = depth
                return node

    @staticmethod
    def _mul(a, b):
        fa = a.factors if isinstance(a, PProd) else (a,)
        fb = b.factors if isinstance(b, PProd) else (b,)
        return PProd(fa + fb)

    def parse_postfix(self):
        node = self.parse_atom()
        if self.cur.kind == "^":
            self.advance()
            tok = self.expect("int")
            node = PPow(node, int(tok.text))
        return node

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return PInt(Fraction(int(tok.text)))
        if tok.kind == "ident":
            self.advance()
            return PIdent(tok.text)
        if tok.kind == "(":
            self.nest()
            self.advance()
            node = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "[":
            self.nest()
            self.advance()
            left = self.parse_sum()
            self.expect(",")
            right = self.parse_sum()
            self.expect("]")
            self.depth -= 1
            return PBracket(left, right)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    # -- group-word grammar ---------------------------------------------------
    #
    # gw      := gfactor+
    # gfactor := gatom ["^" ["-"] int]
    # gatom   := ident | "1" | "(" gw ["," gw] ")"

    def parse_gw_expr(self):
        factors = [self.parse_gw_factor()]
        while self.cur.kind in ("ident", "int", "("):
            factors.append(self.parse_gw_factor())
        if len(factors) == 1:
            return factors[0]
        return GProd(tuple(factors))

    def parse_gw_factor(self):
        node = self.parse_gw_atom()
        if self.cur.kind == "^":
            self.advance()
            sign = 1
            if self.cur.kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("int")
            node = GPow(node, sign * int(tok.text))
        return node

    def parse_gw_atom(self):
        tok = self.cur
        if tok.kind == "ident":
            self.advance()
            return GIdent(tok.text)
        if tok.kind == "int":
            if tok.text != "1":
                self.fail("the only literal group word is the identity, 1")
            self.advance()
            return GOne()
        if tok.kind == "(":
            self.nest()
            self.advance()
            left = self.parse_gw_expr()
            if self.cur.kind == ",":
                self.advance()
                right = self.parse_gw_expr()
                self.expect(")")
                self.depth -= 1
                return GComm(left, right)
            self.expect(")")
            self.depth -= 1
            return left
        self.fail(f"expected a group word, found {tok.text or 'end of input'!r}")


def parse(text: str, kind: str = "poly"):
    """Parse to a syntax tree; kind is "poly" or "gw"."""
    p = _Parser(text)
    if kind == "poly":
        node = p.parse_sum()
    elif kind == "gw":
        node = p.parse_gw_expr()
    else:
        raise ValueError(f"unknown expression kind {kind!r}")
    if p.cur.kind != "end":
        p.fail(f"unexpected trailing input {p.cur.text!r}")
    return node


# ---------------------------------------------------------------------------
# Identifier harvesting and alphabet inference
# ---------------------------------------------------------------------------


def collect_idents(node) -> set:
    out: set = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (PIdent, GIdent)):
            out.add(n.name)
        elif isinstance(n, (PPow, GPow)):
            stack.append(n.base)
        elif isinstance(n, (PProd, GProd)):
            stack.extend(n.factors)
        elif isinstance(n, PDiv):
            stack.extend((n.num, n.den))
        elif isinstance(n, (PBracket, PShuffle, GComm)):
            stack.extend((n.left, n.right))
        elif isinstance(n, PSum):
            stack.extend(t for _, t in n.terms)
    return out


def infer_alphabet(nodes, scalars=()) -> Alphabet:
    """Letters = all identifiers minus declared scalars (and t), sorted."""
    names: set = set()
    for node in nodes:
        names |= collect_idents(node)
    letters = sorted(names - set(scalars) - {TVAR})
    if not letters:
        letters = ["x"]  # scalar-only expressions still need a carrier
    return Alphabet(tuple(letters))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _comb(n: int, k: int) -> int:
    """C(n, k) when min(k, n - k) <= 64; past that C(n, 64) > 2^64, which
    is over MAX_POLY_LETTERS as C(n, k) is, and cheap for any n."""
    return comb(n, min(k, n - k, 64))


def _add_md(a, b):
    return None if a is None or b is None else tuple(map(sum, zip(a, b)))


def _poly_size(n, alphabet: Alphabet) -> tuple:
    """(terms, degree, multidegree) of the NcPoly a poly syntax tree builds:
    at most ``terms`` (word, coefficient monomial) pairs, no word longer
    than ``degree``.  ``multidegree`` counts each letter when every word has
    the same counts and every coefficient is rational, and is None
    otherwise; the words of one multidegree, a multinomial number, bound
    the terms too, so a nested bracket such as [x,[x,...[x,y]...]] counts
    one term per word it can have.  Every subtree is built, so each must
    stay within MAX_POLY_LETTERS letters (terms times the degree, at least
    1), and so must shuffle_words' table, a word of up to d1 + d2 letters
    for each suffix pair of each pair of words.  Each count is exact or
    already over that limit; the table's is a bound."""
    table = 0
    if isinstance(n, PInt):
        t, d, md = 1, 0, (0,) * len(alphabet)
    elif isinstance(n, PIdent):
        if n.name in alphabet.letters:
            t, d, md = 1, 1, tuple(int(n.name == a) for a in alphabet.letters)
        else:
            t, d, md = 1, 0, None
    elif isinstance(n, PPow):
        t, d, md = _poly_size(n.base, alphabet)
        e = n.exponent
        # Past 64 factors any base of two or more terms is over the limit
        # (2^64 > MAX_POLY_LETTERS), so the count stops there.
        t, d = t ** min(e, 64), e * d
        md = None if md is None else tuple(e * a for a in md)
    elif isinstance(n, (PProd, PDiv)):
        t, d, md = 1, 0, (0,) * len(alphabet)
        for f in (n.factors if isinstance(n, PProd) else (n.num, n.den)):
            tf, df, mf = _poly_size(f, alphabet)
            t, d, md = t * tf, d + df, _add_md(md, mf)
    elif isinstance(n, (PBracket, PShuffle)):
        t1, d1, m1 = _poly_size(n.left, alphabet)
        t2, d2, m2 = _poly_size(n.right, alphabet)
        shuffles = 2 if isinstance(n, PBracket) else _comb(d1 + d2, d1)
        t, d, md = t1 * t2 * shuffles, d1 + d2, _add_md(m1, m2)
        if isinstance(n, PShuffle):
            table = t1 * t2 * (d1 + 1) * (d2 + 1) * d
    elif isinstance(n, PSum):
        sizes = [_poly_size(term, alphabet) for _, term in n.terms]
        t = sum(s[0] for s in sizes)
        d = max(s[1] for s in sizes)
        md = sizes[0][2] if all(s[2] == sizes[0][2] for s in sizes) else None
    else:
        raise TypeError(f"not a poly syntax node: {n!r}")
    if md is not None:
        words, total = 1, 0
        for a in md:
            total += a
            words *= _comb(total, a)
        t = min(t, words)
    letters = max(t * max(d, 1), table)
    if letters > MAX_POLY_LETTERS:
        raise ValueError(
            f"polynomial expression could reach {letters} letters, over the "
            f"limit of {MAX_POLY_LETTERS}"
        )
    return t, d, md


def _height(p: NcPoly) -> int:
    """A height H of p: the integers of p^e stay below H^e, and those of a
    product below the product of its factors' H.  Each coefficient's
    numerator and denominator is (1/L) sum a_i m_i with integers a_i; H sums
    max(L, sum |a_i|) over p's coefficients."""
    height = 0
    for c in p.terms.values():
        h = 1
        for part in _num_den(c):
            fs = _mpoly_terms(part).values()
            den = lcm(*(f.denominator for f in fs))
            h = max(h, den, sum(abs(f.numerator) * den // f.denominator for f in fs))
        height += h
    return max(height, 1)


def build_poly(node, alphabet: Alphabet) -> NcPoly:
    """Evaluate a poly syntax tree.  Identifiers outside the alphabet are
    scalar indeterminates and ride along as degree-0 polynomials, so
    products never care which factor is which."""
    _poly_size(node, alphabet)

    def ev(n) -> NcPoly:
        if isinstance(n, PInt):
            return NcPoly.one(alphabet).scale(n.value)
        if isinstance(n, PIdent):
            if n.name in alphabet.letters:
                return NcPoly.letter(alphabet, n.name)
            return NcPoly.one(alphabet).scale(var(n.name))
        if isinstance(n, PPow):
            base = ev(n.base)
            _check_digits("power", n.exponent * log10(_height(base)))
            if base.max_degree() <= 0:
                return NcPoly.one(alphabet).scale(base.coeff(()) ** n.exponent)
            out, e = NcPoly.one(alphabet), n.exponent
            while e:
                if e & 1:
                    out = out * base
                e >>= 1
                if e:
                    base = base * base
            return out
        if isinstance(n, PProd):
            factors = [ev(f) for f in n.factors]
            _check_digits("product", sum(log10(_height(f)) for f in factors))
            out = NcPoly.one(alphabet)
            for f in factors:
                out = out * f
            return out
        if isinstance(n, PDiv):
            num = ev(n.num)
            den = ev(n.den)
            if den.max_degree() > 0:
                raise ValueError("division is only defined by scalars")
            c = den.coeff(())
            if not c:
                raise ZeroDivisionError("scalar division by zero")
            return num.scale(Fraction(1) / c)
        if isinstance(n, PBracket):
            a, b = ev(n.left), ev(n.right)
            return a * b - b * a
        if isinstance(n, PShuffle):
            return shuffle(ev(n.left), ev(n.right))
        if isinstance(n, PSum):
            out = NcPoly.zero(alphabet)
            for sign, t in n.terms:
                out = out + ev(t) if sign > 0 else out - ev(t)
            return out
        raise TypeError(f"not a poly syntax node: {n!r}")

    return ev(node)


def _gw_letters(n) -> int:
    """Letters of a group-word syntax tree before free reduction: an upper
    bound on the length of the word it builds."""
    if isinstance(n, GIdent):
        return 1
    if isinstance(n, GOne):
        return 0
    if isinstance(n, GPow):
        return abs(n.exponent) * _gw_letters(n.base)
    if isinstance(n, GComm):
        return 2 * (_gw_letters(n.left) + _gw_letters(n.right))
    if isinstance(n, GProd):
        return sum(_gw_letters(f) for f in n.factors)
    raise TypeError(f"not a group-word syntax node: {n!r}")


def build_gw(node, alphabet: Alphabet) -> GroupWord:
    letters = _gw_letters(node)
    if letters > MAX_GW_LETTERS:
        raise ValueError(
            f"group word of up to {letters} letters exceeds the limit of "
            f"{MAX_GW_LETTERS}"
        )

    def ev(n) -> GroupWord:
        if isinstance(n, GIdent):
            return GroupWord.generator(alphabet, alphabet.index(n.name))
        if isinstance(n, GOne):
            return GroupWord.identity(alphabet)
        if isinstance(n, GPow):
            base = ev(n.base)
            if not base.entries:  # the letter bound puts no limit on its exponent
                return base
            if n.exponent < 0:
                base = gw_inv(base)
            return GroupWord(alphabet, base.entries * abs(n.exponent))
        if isinstance(n, GComm):
            return commutator(ev(n.left), ev(n.right))
        if isinstance(n, GProd):
            return GroupWord(alphabet, tuple(e for f in n.factors for e in ev(f).entries))
        raise TypeError(f"not a group-word syntax node: {n!r}")

    return ev(node)


def build_lietree(node) -> LieTree:
    """Strict bracket shape: nested [,] over letters only."""
    if isinstance(node, PIdent):
        return LieTree.leaf(node.name)
    if isinstance(node, PBracket):
        return LieTree.bracket(build_lietree(node.left), build_lietree(node.right))
    raise ValueError("expected nested brackets of letters")


def parse_poly(text: str, alphabet: Alphabet = None, scalars=()) -> NcPoly:
    node = parse(text, "poly")
    if alphabet is None:
        alphabet = infer_alphabet([node], scalars)
    return build_poly(node, alphabet)


def parse_gw(text: str, alphabet: Alphabet = None) -> GroupWord:
    node = parse(text, "gw")
    if alphabet is None:
        alphabet = infer_alphabet([node])
    return build_gw(node, alphabet)


def parse_lie(text: str) -> LieTree:
    return build_lietree(parse(text, "poly"))


_SCALAR_CARRIER = Alphabet(("_",))


def parse_scalar(text: str):
    """Parse text with no letters at all: every identifier is a scalar
    indeterminate and the result is a single exact scalar."""
    poly = build_poly(parse(text, "poly"), _SCALAR_CARRIER)
    if poly.max_degree() > 0:
        raise ValueError(f"expected a scalar, got words: {text!r}")
    return poly.coeff(())
