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
# Tokens and syntax trees
# ---------------------------------------------------------------------------
#
# A token is a tuple (kind, text, line, col); kind is "ident", "int", one of
# _SYMBOLS, or "end".
#
# A syntax tree node is a tuple whose first entry is its tag.  Both grammars
# share "ident", "^" and "*"; the polynomial grammar alone has "int", "/",
# "[", "#" and "+", and the group-word grammar alone "1" and "(".
#
#   ("int", value)        integer literal, value a Fraction
#   ("ident", name)       identifier
#   ("^", base, e)        power, e an int (negative only in a group word)
#   ("*", factors)        product, factors a tuple of two or more nodes
#   ("/", num, den)       division
#   ("[", left, right)    Lie bracket
#   ("#", left, right)    shuffle product
#   ("+", terms)          sum, terms a tuple of (sign, node), sign +1 or -1
#   ("1",)                identity group word
#   ("(", left, right)    group commutator

_SYMBOLS = "+-*/^#()[],"


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
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        if self.kind != kind:
            self.fail(f"expected {kind!r}, found {self.found()!r}")
        return self.advance()

    def found(self) -> str:
        return self.tokens[self.pos][1] or "end of input"

    def fail(self, message: str):
        raise ParseError(message, *self.tokens[self.pos][2:])

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
        if self.kind == "-":
            self.advance()
            sign = -1
        terms.append((sign, self.parse_shuffle()))
        while self.kind in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.parse_shuffle()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return ("+", tuple(terms))

    def parse_shuffle(self):
        depth = self.depth
        node = self.parse_product()
        while self.kind == "#":
            self.nest()
            self.advance()
            node = ("#", node, self.parse_product())
        self.depth = depth
        return node

    _ATOM_STARTS = ("int", "ident", "(", "[")

    def parse_product(self):
        depth = self.depth
        node = self.parse_postfix()
        while True:
            if self.kind == "*":
                self.advance()
                node = self._mul(node, self.parse_postfix())
            elif self.kind == "/":
                self.nest()
                self.advance()
                node = ("/", node, self.parse_postfix())
            elif self.kind in self._ATOM_STARTS:
                node = self._mul(node, self.parse_postfix())
            else:
                self.depth = depth
                return node

    @staticmethod
    def _mul(a, b):
        fa = a[1] if a[0] == "*" else (a,)
        fb = b[1] if b[0] == "*" else (b,)
        return ("*", fa + fb)

    def parse_postfix(self):
        node = self.parse_atom()
        if self.kind == "^":
            self.advance()
            node = ("^", node, int(self.expect("int")[1]))
        return node

    def parse_atom(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "int":
            self.advance()
            return ("int", Fraction(int(text)))
        if kind == "ident":
            self.advance()
            return ("ident", text)
        if kind == "(":
            self.nest()
            self.advance()
            node = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "[":
            self.nest()
            self.advance()
            left = self.parse_sum()
            self.expect(",")
            right = self.parse_sum()
            self.expect("]")
            self.depth -= 1
            return ("[", left, right)
        self.fail(f"expected an expression, found {self.found()!r}")

    # -- group-word grammar ---------------------------------------------------
    #
    # gw      := gfactor+
    # gfactor := gatom ["^" ["-"] int]
    # gatom   := ident | "1" | "(" gw ["," gw] ")"

    def parse_gw_expr(self):
        factors = [self.parse_gw_factor()]
        while self.kind in ("ident", "int", "("):
            factors.append(self.parse_gw_factor())
        if len(factors) == 1:
            return factors[0]
        return ("*", tuple(factors))

    def parse_gw_factor(self):
        node = self.parse_gw_atom()
        if self.kind == "^":
            self.advance()
            sign = 1
            if self.kind == "-":
                self.advance()
                sign = -1
            node = ("^", node, sign * int(self.expect("int")[1]))
        return node

    def parse_gw_atom(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "ident":
            self.advance()
            return ("ident", text)
        if kind == "int":
            if text != "1":
                self.fail("the only literal group word is the identity, 1")
            self.advance()
            return ("1",)
        if kind == "(":
            self.nest()
            self.advance()
            left = self.parse_gw_expr()
            if self.kind == ",":
                self.advance()
                right = self.parse_gw_expr()
                self.expect(")")
                self.depth -= 1
                return ("(", left, right)
            self.expect(")")
            self.depth -= 1
            return left
        self.fail(f"expected a group word, found {self.found()!r}")


def parse(text: str, kind: str = "poly"):
    """Parse to a syntax tree; kind is "poly" or "gw"."""
    p = _Parser(text)
    if kind == "poly":
        node = p.parse_sum()
    elif kind == "gw":
        node = p.parse_gw_expr()
    else:
        raise ValueError(f"unknown expression kind {kind!r}")
    if p.kind != "end":
        p.fail(f"unexpected trailing input {p.found()!r}")
    return node


# ---------------------------------------------------------------------------
# Identifier harvesting and alphabet inference
# ---------------------------------------------------------------------------


def collect_idents(node) -> set:
    """The identifier names of a syntax tree of either grammar."""
    out: set = set()
    stack = [node]
    while stack:
        match stack.pop():
            case ("ident", name):
                out.add(name)
            case ("^", base, _):
                stack.append(base)
            case ("*", factors):
                stack.extend(factors)
            case ("+", terms):
                stack.extend(t for _, t in terms)
            case (_, left, right):  # "/", "[", "#" and "("
                stack.extend((left, right))
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
    match n:
        case ("int", _):
            t, d, md = 1, 0, (0,) * len(alphabet)
        case ("ident", name) if name in alphabet.letters:
            t, d, md = 1, 1, tuple(int(name == a) for a in alphabet.letters)
        case ("ident", _):
            t, d, md = 1, 0, None
        case ("^", base, e):
            t, d, md = _poly_size(base, alphabet)
            # Past 64 factors any base of two or more terms is over the limit
            # (2^64 > MAX_POLY_LETTERS), so the count stops there.
            t, d = t ** min(e, 64), e * d
            md = None if md is None else tuple(e * a for a in md)
        case ("*", factors) | ("/", *factors):
            t, d, md = 1, 0, (0,) * len(alphabet)
            for f in factors:
                tf, df, mf = _poly_size(f, alphabet)
                t, d, md = t * tf, d + df, _add_md(md, mf)
        case ("[" | "#" as op, left, right):
            t1, d1, m1 = _poly_size(left, alphabet)
            t2, d2, m2 = _poly_size(right, alphabet)
            shuffles = 2 if op == "[" else _comb(d1 + d2, d1)
            t, d, md = t1 * t2 * shuffles, d1 + d2, _add_md(m1, m2)
            if op == "#":
                table = t1 * t2 * (d1 + 1) * (d2 + 1) * d
        case ("+", terms):
            sizes = [_poly_size(term, alphabet) for _, term in terms]
            t = sum(s[0] for s in sizes)
            d = max(s[1] for s in sizes)
            md = sizes[0][2] if all(s[2] == sizes[0][2] for s in sizes) else None
        case _:
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
        match n:
            case ("int", value):
                return NcPoly.one(alphabet).scale(value)
            case ("ident", name) if name in alphabet.letters:
                return NcPoly.letter(alphabet, name)
            case ("ident", name):
                return NcPoly.one(alphabet).scale(var(name))
            case ("^", base, e):
                base = ev(base)
                _check_digits("power", e * log10(_height(base)))
                if base.max_degree() <= 0:
                    return NcPoly.one(alphabet).scale(base.coeff(()) ** e)
                out = NcPoly.one(alphabet)
                while e:
                    if e & 1:
                        out = out * base
                    e >>= 1
                    if e:
                        base = base * base
                return out
            case ("*", factors):
                factors = [ev(f) for f in factors]
                _check_digits("product", sum(log10(_height(f)) for f in factors))
                out = NcPoly.one(alphabet)
                for f in factors:
                    out = out * f
                return out
            case ("/", num, den):
                num, den = ev(num), ev(den)
                if den.max_degree() > 0:
                    raise ValueError("division is only defined by scalars")
                c = den.coeff(())
                if not c:
                    raise ZeroDivisionError("scalar division by zero")
                return num.scale(Fraction(1) / c)
            case ("[", left, right):
                a, b = ev(left), ev(right)
                return a * b - b * a
            case ("#", left, right):
                return shuffle(ev(left), ev(right))
            case ("+", terms):
                out = NcPoly.zero(alphabet)
                for sign, t in terms:
                    out = out + ev(t) if sign > 0 else out - ev(t)
                return out
        raise TypeError(f"not a poly syntax node: {n!r}")

    return ev(node)


def _gw_letters(n) -> int:
    """Letters of a group-word syntax tree before free reduction: an upper
    bound on the length of the word it builds."""
    match n:
        case ("ident", _):
            return 1
        case ("1",):
            return 0
        case ("^", base, e):
            return abs(e) * _gw_letters(base)
        case ("(", left, right):
            return 2 * (_gw_letters(left) + _gw_letters(right))
        case ("*", factors):
            return sum(_gw_letters(f) for f in factors)
    raise TypeError(f"not a group-word syntax node: {n!r}")


def build_gw(node, alphabet: Alphabet) -> GroupWord:
    letters = _gw_letters(node)
    if letters > MAX_GW_LETTERS:
        raise ValueError(
            f"group word of up to {letters} letters exceeds the limit of "
            f"{MAX_GW_LETTERS}"
        )

    def ev(n) -> GroupWord:
        match n:
            case ("ident", name):
                return GroupWord.generator(alphabet, alphabet.index(name))
            case ("1",):
                return GroupWord.identity(alphabet)
            case ("^", base, e):
                base = ev(base)
                if not base.entries:  # the letter bound puts no limit on its exponent
                    return base
                if e < 0:
                    base = gw_inv(base)
                return GroupWord(alphabet, base.entries * abs(e))
            case ("(", left, right):
                return commutator(ev(left), ev(right))
            case ("*", factors):
                return GroupWord(alphabet, tuple(e for f in factors for e in ev(f).entries))
        raise TypeError(f"not a group-word syntax node: {n!r}")

    return ev(node)


def build_lietree(node) -> LieTree:
    """Strict bracket shape: nested [,] over letters only."""
    match node:
        case ("ident", name):
            return LieTree.leaf(name)
        case ("[", left, right):
            return LieTree.bracket(build_lietree(left), build_lietree(right))
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
