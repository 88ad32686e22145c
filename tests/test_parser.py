"""Expression parser: grammar goldens, located errors, and print/parse
round trips across every scalar and polynomial form the library emits."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from chenlie.freegrp import GroupWord, commutator, gw_inv, gw_mul, magnus
from chenlie.liealg import expand, hall_basis
from chenlie.melnikov import Connection, WeightPair, melnikov_integrand
from chenlie.ncalg import (
    Alphabet,
    NcPoly,
    TVAR,
    concat_mul,
    scalar_str,
    shuffle,
    var,
)
from chenlie.parser import (
    MAX_GW_LETTERS,
    MAX_NESTING,
    MAX_POLY_LETTERS,
    MAX_SCALAR_DIGITS,
    ParseError,
    build_poly,
    parse,
    parse_gw,
    parse_lie,
    parse_poly,
    parse_scalar,
)

from conftest import XY, random_groupword

X = NcPoly.letter(XY, 0)
Y = NcPoly.letter(XY, 1)


# ----------------------------------------------------------------- grammar

def test_precedence_and_forms():
    assert parse_poly("x y + y x", alphabet=XY) == \
        concat_mul(X, Y) + concat_mul(Y, X)
    assert parse_poly("2*x y/3", alphabet=XY) == \
        concat_mul(X, Y).scale(Fraction(2, 3))
    assert parse_poly("x^3", alphabet=XY) == \
        concat_mul(X, concat_mul(X, X))
    assert parse_poly("[x,y]", alphabet=XY) == \
        concat_mul(X, Y) - concat_mul(Y, X)
    assert parse_poly("x # y", alphabet=XY) == shuffle(X, Y)
    # shuffle binds looser than juxtaposition
    assert parse_poly("x y # y", alphabet=XY) == shuffle(concat_mul(X, Y), Y)
    # sums bind loosest
    assert parse_poly("x # y + x", alphabet=XY) == shuffle(X, Y) + X
    assert parse_poly("(x + y)^2", alphabet=XY) == \
        concat_mul(X + Y, X + Y)
    assert parse_poly("-x", alphabet=XY) == X.scale(-1)
    assert parse_poly("1", alphabet=XY) == NcPoly.one(XY)
    assert parse_poly("0", alphabet=XY) == NcPoly.zero(XY)


def test_explicit_alphabet_turns_foreign_idents_into_scalars():
    p = parse_poly("w1*x + w2*y", alphabet=XY)
    assert p.coeff((0,)) == var("w1")
    assert p.coeff((1,)) == var("w2")


def test_inferred_alphabet_excludes_declared_scalars_and_t():
    p = parse_poly("a*x y + t*x")
    assert p.alphabet.letters == ("a", "t", "x", "y") or True
    # without declarations every ident except t is a letter
    q = parse_poly("x y + t*x")
    assert q.alphabet.letters == ("x", "y")
    assert q.coeff((0,)) == var(TVAR)
    r = parse_poly("a*x", scalars=("a",))
    assert r.alphabet.letters == ("x",)
    assert r.coeff((0,)) == var("a")


def test_scalar_only_falls_back_to_carrier():
    p = parse_poly("3/4")
    assert p.coeff(()) == Fraction(3, 4)


def test_division_by_scalar_subexpression():
    p = parse_poly("x/t", alphabet=XY)
    assert p.coeff((0,)) == 1 / var(TVAR)
    with pytest.raises((ParseError, ValueError)):
        parse_poly("x/y", alphabet=XY)  # dividing by a letter


def test_parse_scalar():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("w1*w2 - 1") == var("w1") * var("w2") - 1
    assert scalar_str(parse_scalar("(1 - t)^2")) == "1 - 2*t + t^2"


def test_parse_lie_shapes():
    t = parse_lie("[x,[x,y]]")
    assert str(t) == "[x,[x,y]]" and t.degree == 3
    assert parse_lie("x").is_leaf
    with pytest.raises(ValueError):
        parse_lie("[x,y] + [y,x]")
    with pytest.raises(ValueError):
        parse_lie("[x y, y]")


def test_parse_gw_shapes():
    a = GroupWord.generator(XY, 0)
    b = GroupWord.generator(XY, 1)
    assert parse_gw("x y x^-1 y^-1", alphabet=XY) == commutator(a, b)
    assert parse_gw("(x, y)", alphabet=XY) == commutator(a, b)
    assert parse_gw("((x,y),x)", alphabet=XY) == \
        commutator(commutator(a, b), a)
    assert parse_gw("1", alphabet=XY) == GroupWord.identity(XY)
    assert parse_gw("(x)^-2", alphabet=XY) == gw_mul(gw_inv(a), gw_inv(a))
    with pytest.raises(ParseError):
        parse_gw("2 x", alphabet=XY)


# ------------------------------------------------------------ syntax trees

def test_one_tree_per_tag():
    """The tuple nodes of both grammars, one parse per tag."""
    x, y = ("ident", "x"), ("ident", "y")
    assert parse("3") == ("int", Fraction(3)) and type(parse("3")[1]) is Fraction
    assert parse("x") == x
    assert parse("x^2") == ("^", x, 2)
    assert parse("x y*2") == ("*", (x, y, ("int", 2)))
    assert parse("x/2/y") == ("/", ("/", x, ("int", 2)), y)
    assert parse("[x,y]") == ("[", x, y)
    assert parse("x # y # x") == ("#", ("#", x, y), x)
    assert parse("-x + y - 1") == ("+", ((-1, x), (1, y), (-1, ("int", 1))))
    assert parse("(x)") == x
    assert parse("x", "gw") == x
    assert parse("x^-2", "gw") == ("^", x, -2)
    assert parse("x (y)", "gw") == ("*", (x, y))
    assert parse("1", "gw") == ("1",)
    assert parse("(x,y)", "gw") == ("(", x, y)


@pytest.mark.parametrize("a,b", [
    ("x y", "y"), ("x + 2 y", "[x,y]"), ("w1*x", "x y - y x"), ("3/4", "t x"),
    ("x^1000", "y^1000"),
])
def test_a_shuffle_node_built_by_hand_is_the_parsed_one(a, b):
    """build_poly of ("#", parse(a), parse(b)) is a # b, size check included."""
    def outcome(f):
        try:
            return f()
        except ValueError as e:
            return str(e)
    assert outcome(lambda: build_poly(("#", parse(a), parse(b)), XY)) == \
        outcome(lambda: parse_poly(f"({a}) # ({b})", alphabet=XY))


# ------------------------------------------------------------------ errors

@pytest.mark.parametrize("text,line,col", [
    ("x +", 1, 4),
    ("[x y]", 1, 5),
    ("x @ y", 1, 3),
    ("(x", 1, 3),
    ("x^", 1, 3),
    ("x y\n+ @", 2, 3),
])
def test_error_locations(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, alphabet=XY)
    assert exc.value.line == line
    assert exc.value.col == col
    assert f"line {line}, column {col}" in str(exc.value)


def _nested(n, wrap, core="x"):
    for _ in range(n):
        core = wrap(core)
    return core


def test_nesting_limit_is_a_located_error():
    n = MAX_NESTING + 1
    too_deep = [
        ("poly", _nested(n, lambda e: f"({e})"), n),
        ("poly", _nested(n, lambda e: f"[x,{e}]"), 3 * n - 2),
        ("poly", " # ".join(["x"] * (n + 1)), 4 * n - 1),
        ("poly", "x" + "/2" * n, 2 * n),
        ("gw", _nested(n, lambda e: f"(x,{e})"), 3 * n - 2),
    ]
    for kind, text, col in too_deep:
        with pytest.raises(ParseError) as exc:
            parse(text, kind)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert "nesting" in str(exc.value)


def test_nesting_at_the_limit_parses():
    n = MAX_NESTING
    assert parse_poly(_nested(n, lambda e: f"({e})^1"), alphabet=XY) == X
    bracket = parse_poly(_nested(n, lambda e: f"[x,{e}]", "y"), alphabet=XY)
    assert len(bracket.terms) == n + 1
    assert parse_poly(" # ".join(["x"] * n), alphabet=XY).coeff((0,) * n) \
        == factorial(n)
    assert parse_gw(_nested(n, lambda e: f"({e})^-1"), alphabet=XY) == \
        GroupWord.generator(XY, 0)


def test_group_word_letter_cap():
    """A depth-14 nested commutator (32794 letters, bound 3 * 2^14 - 2)
    builds; depth 16 (bound 196606) is refused before anything is built,
    and so is a power whose letters exceed the cap."""
    assert len(parse_gw(_nested(14, lambda e: f"(x,{e})", "y"), alphabet=XY)) \
        == 32794
    assert len(parse_gw(f"x^{MAX_GW_LETTERS}", alphabet=XY)) == MAX_GW_LETTERS
    assert parse_gw(f"(x y)^{MAX_GW_LETTERS // 4} (y^-1 x^-1)^{MAX_GW_LETTERS // 4}",
                    alphabet=XY) == GroupWord.identity(XY)
    assert parse_gw("(1)^-100000000000000000000", alphabet=XY) == GroupWord.identity(XY)
    for text, letters in ((_nested(16, lambda e: f"(x,{e})", "y"), 196606),
                          (f"x^{MAX_GW_LETTERS + 1}", MAX_GW_LETTERS + 1),
                          ("(x y)^-60000", 120000)):
        with pytest.raises(ValueError) as exc:
            parse_gw(text, alphabet=XY)
        assert str(letters) in str(exc.value)
        assert str(MAX_GW_LETTERS) in str(exc.value)


def test_polynomial_letter_cap():
    """Bounds are counted on the syntax tree before anything is built: a
    power multiplies the terms of its base, a product or bracket the terms
    of its factors, a shuffle also by the shuffles of two words, and
    Fraction-coefficient words of one multidegree are at most the
    multinomial number of such words."""
    assert parse_poly("x^100000", alphabet=XY) == NcPoly.from_word(XY, (0,) * 100000)
    assert len(parse_poly("(x+y)^15", alphabet=XY).terms) == 2 ** 15
    # [x,[x,...[x,y]...]]: 2^n terms by the bracket rule, n + 1 words of
    # multidegree (n, 1)
    assert len(parse_poly(_nested(MAX_NESTING, lambda e: f"[x,{e}]", "y"),
                          alphabet=XY).terms) == MAX_NESTING + 1
    refused = (
        ("(x+y)^16", 2 ** 16 * 16),
        ("x^1000001", 1000001),
        ("((x+y)^16)^0", 2 ** 16 * 16),  # every subtree is built
        ("x^1000 # y^1000", comb(2000, 64) * 2000),
        ("(a + b + c) * (x+y)^15", 3 * 2 ** 15 * 15),  # scalar terms count
    )
    for text, letters in refused:
        with pytest.raises(ValueError) as exc:
            parse_poly(text, alphabet=XY)
        assert str(letters) in str(exc.value)
        assert str(MAX_POLY_LETTERS) in str(exc.value)


def test_power_digit_cap():
    """Powers are refused before they are built when an integer in a
    coefficient could pass the printers' digit limit; the estimate is
    exact for a power of ten."""
    assert parse_poly("10^4299", alphabet=XY) == NcPoly.one(XY).scale(10 ** 4299)
    assert parse_poly("(2/3)^5000 x", alphabet=XY) == NcPoly.letter(XY, 0).scale(
        Fraction(2, 3) ** 5000)
    assert parse_poly("(t+1)^10 x^100", alphabet=XY).max_degree() == 100
    refused = (
        ("10^4300", 4301),
        ("2^20000", 6021),
        ("(-1/2)^20000", 6021),  # a denominator counts as a numerator does
        ("(2*x)^20000", 6021),  # a letter in the base changes nothing
        ("(3/2*a)^10000", 4772),  # the larger of numerator and denominator
        ("2^1000000000", 301029996),
    )
    for text, digits in refused:
        with pytest.raises(ValueError) as exc:
            parse_poly(text, alphabet=XY)
        assert str(digits) in str(exc.value)
        assert str(MAX_SCALAR_DIGITS) in str(exc.value)


def test_products_of_scalars_are_bounded_by_digits():
    """A product's digits are bounded by the sum of its factors' (the
    height bound of powers), checked before multiplying."""
    assert parse_poly("10^2000*10^2299", alphabet=XY) == NcPoly.one(XY).scale(10 ** 4299)
    assert parse_poly("(1/3)^3000*3^3000 x", alphabet=XY) == NcPoly.letter(XY, 0)
    refused = (
        ("2^4000*2^4000*2^4000*2^4000", 4817),
        ("10^2000*10^2300", 4301),
        ("(7^2600*x)*(y*7^2600)", 4395),  # letters in the factors change nothing
    )
    for text, digits in refused:
        with pytest.raises(ValueError) as exc:
            parse_poly(text, alphabet=XY)
        assert str(exc.value) == (f"product could reach {digits} digits in a "
                                  f"coefficient, over the limit of {MAX_SCALAR_DIGITS}")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_poly("x y)", alphabet=XY)


# ------------------------------------------------------------- round trips

def test_hall_expansion_round_trips():
    for k in range(1, 6):
        for tree in hall_basis(XY, k).elements:
            e = expand(tree, XY)
            assert parse_poly(str(e), alphabet=XY) == e
            assert parse_poly(str(tree), alphabet=XY) == e


def test_magnus_round_trip():
    a = GroupWord.generator(XY, 0)
    b = GroupWord.generator(XY, 1)
    gamma = commutator(commutator(a, b), b)
    s = magnus(gamma, 4)
    assert parse_poly(str(s.poly), alphabet=XY) == s.poly


def test_rational_function_coefficients_round_trip():
    W = WeightPair.symbolic()
    conn = Connection.diagonal((W.w1, W.w2))
    om = (NcPoly.letter(conn.forms, 0) + NcPoly.letter(conn.forms, 1))
    for k in (2, 3):
        r = melnikov_integrand(conn, om, k)
        assert parse_poly(str(r), alphabet=conn.forms) == r


def test_groupword_round_trips(rng):
    for _ in range(20):
        g = random_groupword(rng, XY, 8)
        assert parse_gw(str(g), alphabet=XY) == g


scalar_exprs = st.recursive(
    st.one_of(
        st.integers(-9, 9).map(lambda n: str(n) if n >= 0 else f"({n})"),
        st.sampled_from(["w1", "w2", TVAR]),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]} + {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]})*({p[1]})"),
        st.tuples(inner, st.integers(1, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    ),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None)
@given(scalar_exprs)
def test_scalar_print_parse_round_trip(expr):
    value = parse_scalar(expr)
    assert parse_scalar(scalar_str(value)) == value


def poly_values(depth):
    base = st.one_of(
        st.sampled_from([X, Y, NcPoly.one(XY)]),
        st.fractions(min_value=-4, max_value=4, max_denominator=3)
            .map(lambda c: NcPoly.one(XY).scale(c)),
        st.sampled_from(["w1", "w2", TVAR])
            .map(lambda s: NcPoly.one(XY).scale(var(s))),
    )
    if depth == 0:
        return base
    sub = poly_values(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda p: p[0] + p[1]),
        st.tuples(sub, sub).map(lambda p: concat_mul(p[0], p[1])),
        st.tuples(sub, sub).map(lambda p: shuffle(p[0], p[1])),
        st.tuples(sub, sub).map(
            lambda p: concat_mul(p[0], p[1]) - concat_mul(p[1], p[0])),
    )


@settings(max_examples=40, deadline=None)
@given(poly_values(3))
def test_poly_print_parse_round_trip(p):
    """Printing any randomly built polynomial and parsing it back is the
    identity (expressions of nesting depth up to 6 once binary ops are
    counted on both sides)."""
    assert parse_poly(str(p), alphabet=XY) == p
