"""Scalar tower and free associative algebra: arithmetic laws, shuffle
combinatorics, the duality pairing, and the printing grammar."""

import inspect
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from chenlie import ncalg
from chenlie.chenint import TruncSeries, ts_mul
from chenlie.melnikov import Connection, derive
from chenlie.ncalg import (
    Alphabet,
    MPoly,
    NcPoly,
    RatFunc,
    TVAR,
    collect,
    concat_mul,
    default_letters,
    homogeneous_part,
    inner,
    scalar_dt,
    scalar_str,
    shuffle,
    shuffle_words,
    var,
    word_str,
)
from conftest import random_lie_poly
from oracles import is_lie_ree, shuffle_inner, shuffle_words_tuples

XY = Alphabet(("x", "y"))


# ---------------------------------------------------------------- scalars

def test_variables_and_demotion():
    w1, w2 = var("w1"), var("w2")
    assert isinstance(w1 + w2, MPoly)
    # subtracting a polynomial from itself demotes to an exact Fraction
    diff = w1 * w2 - w1 * w2
    assert diff == Fraction(0) and isinstance(diff, Fraction)
    assert w1 * 6 / 3 == w1 * 2


def test_rational_function_cancellation():
    t = var(TVAR)
    # (t^2 - 1) / (t - 1) cancels down to the polynomial t + 1
    q = (t * t - 1) / (t - 1)
    assert isinstance(q, MPoly)
    assert q == t + 1
    # a genuine rational function stays one, with exact round trip
    r = 1 / t
    assert isinstance(r, RatFunc)
    assert r * t == Fraction(1)


def test_scalar_division_by_zero():
    t = var(TVAR)
    with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
        var("w1") / 0
    with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
        (t + 1) / (t - t)
    with pytest.raises(ZeroDivisionError):
        1 / (t - t)  # a Fraction divisor: Fraction's own operator


def test_scalar_pow_negative_exponent():
    t = var(TVAR)
    assert t ** -2 * t ** 2 == Fraction(1)
    assert Fraction(2) ** -1 == Fraction(1, 2)


def test_scalar_dt_basics():
    t = var(TVAR)
    assert scalar_dt(Fraction(5)) == 0
    assert scalar_dt(t ** 3) == t ** 2 * 3
    # d/dt (1/t) = -1/t^2
    assert scalar_dt(1 / t) == -1 / t ** 2
    # other indeterminates are constants for d/dt
    assert scalar_dt(var("w1")) == 0


small_scalars = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.sampled_from([var("w1"), var("w2"), var(TVAR)]),
    st.builds(lambda a, b: var(a) + b, st.sampled_from(["w1", TVAR]), st.integers(-3, 3)),
)


@settings(max_examples=40, deadline=None)
@given(small_scalars, small_scalars, small_scalars)
def test_scalar_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(small_scalars, small_scalars)
def test_scalar_dt_leibniz(a, b):
    assert scalar_dt(a * b) == scalar_dt(a) * b + a * scalar_dt(b)


def test_scalar_str_goldens():
    w1, w2, t = var("w1"), var("w2"), var(TVAR)
    assert scalar_str(w2 - w1) == "w2 - w1"
    assert scalar_str(w1 * w2) == "w1*w2"
    assert scalar_str(w1 / t) == "w1/t"
    assert scalar_str(Fraction(-3, 2)) == "-3/2"
    assert scalar_str((t - 1) ** 2) == "1 - 2*t + t^2"
    r = w1 / t
    assert str(r) == repr(r) == scalar_str(r) == "w1/t"


# ------------------------------------------------------------------ words

def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("x", "x"))
    assert XY.index("y") == 1
    with pytest.raises(KeyError):
        XY.index("z")


def test_default_letters():
    assert default_letters(1) == ("x",)
    assert default_letters(2) == ("x", "y")
    assert len(default_letters(4)) == 4
    for m in (-2, -1, 0):
        with pytest.raises(ValueError, match="^alphabet must have at least one letter$"):
            default_letters(m)


def test_words_enumeration():
    for k in range(4):
        assert len(list(XY.words(k))) == 2 ** k
    assert word_str(XY, (0, 1, 0)) == "x y x"
    assert word_str(XY, ()) == ""


# ----------------------------------------------------------------- NcPoly

def test_basic_polynomial_ops():
    x = NcPoly.letter(XY, 0)
    y = NcPoly.letter(XY, 1)
    xy = concat_mul(x, y)
    assert xy.coeff((0, 1)) == 1 and xy.coeff((1, 0)) == 0
    assert (xy - xy).is_zero()
    assert NcPoly.one(XY).coeff(()) == 1
    assert str(concat_mul(x, y) - concat_mul(y, x)) == "x y - y x"


def test_shuffle_words_counts():
    assert shuffle_words((0,), (1,)) == {(0, 1): 1, (1, 0): 1}
    assert shuffle_words((0,), (0,)) == {(0, 0): 2}
    counts = shuffle_words((0, 1), (0, 1))
    assert sum(counts.values()) == comb(4, 2)
    # the table is filled without recursing: 200 letters fit in 50 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        long = shuffle_words((0,) * 200, (1,))
    finally:
        sys.setrecursionlimit(limit)
    assert long == {(0,) * i + (1,) + (0,) * (200 - i): 1 for i in range(201)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1))
def test_shuffle_mass(r, s, seed_letter):
    """The coefficients of u shuffle v always sum to C(r+s, r)."""
    u = tuple((seed_letter + i) % 2 for i in range(r))
    v = tuple(i % 2 for i in range(s))
    assert sum(shuffle_words(u, v).values()) == comb(r + s, r)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=7), st.lists(st.integers(0, 2), max_size=7))
def test_shuffle_words_matches_the_tuple_table(u, v):
    """Same words, multiplicities and order as the table of tuples, for
    empty words and repeated letters too."""
    ncalg._SHUFFLE_CACHE.pop((tuple(u), tuple(v)), None)
    got = shuffle_words(u, v)
    assert list(got.items()) == list(shuffle_words_tuples(u, v).items())
    assert all(type(w) is tuple for w in got)


def small_polys(alphabet=XY, max_deg=3):
    words = [w for k in range(max_deg + 1) for w in alphabet.words(k)]
    return st.lists(
        st.tuples(st.sampled_from(words),
                  st.fractions(min_value=-5, max_value=5, max_denominator=3)),
        min_size=0, max_size=4,
    ).map(lambda items: sum(
        (NcPoly.from_word(alphabet, w, c) for w, c in items),
        NcPoly.zero(alphabet)))


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_algebra_laws(p, q, r):
    assert concat_mul(concat_mul(p, q), r) == concat_mul(p, concat_mul(q, r))
    assert shuffle(p, q) == shuffle(q, p)
    assert shuffle(shuffle(p, q), r) == shuffle(p, shuffle(q, r))
    assert concat_mul(p, q + r) == concat_mul(p, q) + concat_mul(p, r)
    assert shuffle(p, q + r) == shuffle(p, q) + shuffle(p, r)


def test_inner_counts_shuffles():
    """<u shuffle v, w> equals the number of ways w arises as a shuffle."""
    u, v = (0, 1), (0,)
    s = shuffle(NcPoly.from_word(XY, u), NcPoly.from_word(XY, v))
    for w, mult in shuffle_words(u, v).items():
        assert inner(s, NcPoly.from_word(XY, w)) == mult
    assert inner(s, NcPoly.from_word(XY, (1, 1, 1))) == 0


@settings(max_examples=30, deadline=None)
@given(small_polys())
def test_inner_definiteness(p):
    """Over the rationals <p, p> = 0 iff p = 0."""
    ip = inner(p, p)
    assert (ip == 0) == p.is_zero()
    if not p.is_zero():
        assert ip > 0


def test_homogeneous_parts():
    x = NcPoly.letter(XY, 0)
    p = NcPoly.one(XY) + x + concat_mul(x, x).scale(3)
    assert homogeneous_part(p, 0) == NcPoly.one(XY)
    assert homogeneous_part(p, 1) == x
    assert homogeneous_part(p, 2).coeff((0, 0)) == 3
    assert homogeneous_part(p, 5).is_zero()
    assert p.degrees() == (0, 1, 2)
    assert not p.is_homogeneous() and x.is_homogeneous()


def test_alphabet_mismatch_rejected():
    other = Alphabet(("a", "b"))
    with pytest.raises(ValueError):
        concat_mul(NcPoly.letter(XY, 0), NcPoly.letter(other, 0))


def test_poly_printing_goldens():
    x = NcPoly.letter(XY, 0)
    y = NcPoly.letter(XY, 1)
    w1, w2, t = var("w1"), var("w2"), var(TVAR)
    assert str(NcPoly.zero(XY)) == "0"
    assert str(NcPoly.one(XY)) == "1"
    assert str(concat_mul(x, y).scale(Fraction(3, 2))) == "3*x y/2"
    assert str(concat_mul(x, y).scale(w2)) == "w2*x y"
    assert str(x.scale(w2 - w1)) == "(w2 - w1)*x"
    assert str(x.scale(w1 / t)) == "(w1/t)*x"
    assert str(x.scale(-2 / t)) == "((-2)/t)*x"
    assert str(x.scale(Fraction(1, 2) / t ** 2)) == "((1/2)/t^2)*x"
    assert str(NcPoly.one(XY).scale(w2 - w1)) == "(w2 - w1)"


# ------------------------------------------------- the accumulate kernel

def _assert_normalized(p):
    """The NcPoly invariant the kernel keeps without the constructor's
    pass: every coefficient is a nonzero Fraction, MPoly or RatFunc."""
    for c in p.terms.values():
        assert type(c) in (Fraction, MPoly, RatFunc), (p, c)
        assert c, p


kernel_scalars = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.sampled_from([var("w1"), -var("w1"), var(TVAR)]),
    st.builds(lambda a, b: var(a) + b, st.sampled_from(["w1", TVAR]), st.integers(-2, 2)),
)


def kernel_polys(alphabet=XY, max_deg=2):
    words = [w for k in range(max_deg + 1) for w in alphabet.words(k)]
    return st.dictionaries(st.sampled_from(words), kernel_scalars, max_size=4) \
        .map(lambda terms: NcPoly(alphabet, terms))


@settings(max_examples=60, deadline=None)
@given(kernel_polys(), kernel_polys(), st.integers(0, 4))
def test_kernel_results_stay_normalized(p, q, n):
    # Inputs built to cancel: p - p, and p + (q - p) = q.
    assert (p - p).is_zero() and (p + (-p)).is_zero()
    assert p + (q - p) == q
    assert (p - q) + (q - p) == NcPoly.zero(XY)
    conn = Connection(XY, var(TVAR), ((var("w1"), 1), (0, Fraction(-1, 2))))
    results = [
        concat_mul(p, q), concat_mul(p, -p), shuffle(p, q), shuffle(p, -p),
        p + q, p - q, p - p, p + (q - p),
        ts_mul(TruncSeries(n, p), TruncSeries(n, q)).poly,
        derive(conn, p), derive(conn, p - q),
    ]
    for r in results:
        _assert_normalized(r)


def test_kernel_cancels_and_keeps_start():
    w1 = var("w1")
    start = {(0,): w1, (1,): Fraction(2)}
    p = collect(XY, [((0,), -w1), ((0, 1), Fraction(3))], start)
    assert p.terms == {(1,): Fraction(2), (0, 1): Fraction(3)}
    assert start == {(0,): w1, (1,): Fraction(2)}  # start is not mutated
    assert collect(XY, [((0,), Fraction(1)), ((0,), Fraction(-1))]).is_zero()


def test_shuffle_inner_matches_the_shuffle_polynomial():
    p = NcPoly(XY, {(0, 1, 0): 3, (0, 0, 1): var("w1"), (1, 0, 0): Fraction(1, 2)})
    for u, v in (((0,), (1, 0)), ((0, 1), (0,)), ((1,), (0, 0))):
        s = shuffle(NcPoly.from_word(XY, u), NcPoly.from_word(XY, v))
        assert shuffle_inner(p, u, v) == inner(p, s)


# ------------------------------------------------ the scalar operator base

def test_foreign_operands_raise_type_error():
    w1 = var("w1")
    r = w1 / var(TVAR)
    x = NcPoly.letter(XY, 0)
    for bad in ("a", 1.5, None):
        for v in (w1, r, x):
            with pytest.raises(TypeError):
                v + bad
            with pytest.raises(TypeError):
                bad - v
    with pytest.raises(TypeError):
        w1 * "a"
    with pytest.raises(TypeError):
        "a" / r


def test_equal_values_hash_equal():
    t, w1, w2 = var(TVAR), var("w1"), var("w2")
    pairs = [
        (w1 + w2, w2 + w1),
        ((w1 + 1) * (w1 - 1), w1 * w1 - 1),
        (w1 / t, w1 * t / (t * t)),
        (1 / (t + 1), (t - 1) / (t * t - 1)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    x, y = NcPoly.letter(XY, 0), NcPoly.letter(XY, 1)
    p = concat_mul(x, y).scale(w1) + y
    q = y + NcPoly(XY, {(0, 1): w1})
    assert p == q and hash(p) == hash(q)


# ------------------------------------ rational-function normalization oracle


def _reference_ratfunc(num, den):
    """num/den normalized by the Euclidean gcd alone, with no fast path:
    the oracle the Laurent normalization and the same-denominator sum are
    checked against."""
    if type(den) is Fraction:
        return ncalg._mpoly_mul(num, Fraction(1) / den)
    if not num:
        return Fraction(0)
    dup = ncalg._t_content_split(den)[()]
    groups = ncalg._t_content_split(num)
    g = dup
    for u in groups.values():
        if len(g) <= 1:
            break
        g = ncalg._up_gcd(g, u)
    if len(g) > 1:
        dup, _ = ncalg._up_divmod(dup, g)
        new_terms: dict = {}
        for rest, u in groups.items():
            q, r = ncalg._up_divmod(u, g)
            assert not r
            for e, c in enumerate(q):
                if c:
                    new_terms[ncalg._mono_mul(rest, ((TVAR, e),) if e else ())] = c
        num = ncalg._make_mpoly(new_terms)
    lead = dup[-1]
    if lead != 1:
        dup = tuple(c / lead for c in dup)
        num = ncalg._mpoly_mul(num, Fraction(1) / lead)
    if len(dup) == 1:
        return num
    return RatFunc(num, ncalg._up_to_scalar(dup))


_num_den = ncalg._num_den
_mul = ncalg._mpoly_mul
POWERS = range(-3, 4)


def _neg(x):
    return _mul(x, Fraction(-1))


def _reference_add(a, b):
    (na, da), (nb, db) = _num_den(a), _num_den(b)
    return _reference_ratfunc(ncalg._mpoly_add(_mul(na, db), _mul(nb, da)), _mul(da, db))


def _reference_ops(a, b):
    """Cross-multiplied sum, difference, product, quotient (for a divisor
    in Q(t)), negation, powers (negative ones for a base in Q(t)) and
    t-derivative, each normalized by the reference."""
    (na, da), (nb, db) = _num_den(a), _num_den(b)
    out = {
        "add": _reference_add(a, b),
        "sub": _reference_add(a, _reference_ratfunc(_neg(nb), db)),
        "mul": _reference_ratfunc(_mul(na, nb), _mul(da, db)),
        "neg": _reference_ratfunc(_neg(na), da),
        "dt": _reference_ratfunc(
            ncalg._mpoly_add(_mul(scalar_dt(na), da), _neg(_mul(na, scalar_dt(da)))),
            _mul(da, da)),
    }
    if ncalg._is_tpoly(nb) and nb:
        out["div"] = _reference_ratfunc(_mul(na, db), _mul(da, nb))
    for n in POWERS:
        if n >= 0:
            out["pow", n] = _reference_ratfunc(_product([na] * n), _product([da] * n))
        elif ncalg._is_tpoly(na) and na:
            out["pow", n] = _reference_ratfunc(_product([da] * -n), _product([na] * -n))
    return out


def _program_ops(a, b, names):
    """The operators under test, run for each name of ``names``."""
    ops = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "mul": lambda: a * b,
        "div": lambda: a / b,
        "neg": lambda: -a,
        "dt": lambda: scalar_dt(a),
    }
    ops.update({("pow", n): (lambda n=n: a ** n) for n in POWERS})
    return {name: ops[name]() for name in names}


def _assert_tower(x):
    assert type(x) in (Fraction, MPoly, RatFunc), (x, type(x))


def _product(factors):
    out = Fraction(1)
    for f in factors:
        out = _mul(out, f)
    return out


def _monomial(i, j):
    return tuple(v for v in ((TVAR, i), ("w1", j)) if v[1])


oracle_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
oracle_numerators = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2)), oracle_coeffs, max_size=4,
).map(lambda terms: ncalg._make_mpoly({_monomial(i, j): c for (i, j), c in terms.items()}))
oracle_t_numerators = st.dictionaries(st.integers(0, 3), oracle_coeffs, min_size=1, max_size=3) \
    .map(lambda terms: ncalg._make_mpoly({_monomial(i, 0): c for i, c in terms.items()}))
oracle_denominators = st.one_of(
    # c t^a, the Laurent case (a = 0 is a constant denominator)
    st.builds(lambda c, a: c * var(TVAR) ** a, oracle_coeffs.filter(bool), st.integers(0, 4)),
    # products of (t - r), the general case
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
        lambda roots: _product([var(TVAR) - r for r in roots])),
)


oracle_scalars = st.builds(_reference_ratfunc, oracle_numerators, oracle_denominators)
oracle_divisors = st.builds(_reference_ratfunc, oracle_t_numerators, oracle_denominators)


@settings(max_examples=150, deadline=None)
@given(oracle_numerators, oracle_denominators)
def test_normalization_matches_the_gcd_reference(num, den):
    got = ncalg._make_ratfunc(num, den)
    want = _reference_ratfunc(num, den)
    assert got == want and hash(got) == hash(want)
    assert scalar_str(got) == scalar_str(want)


@settings(max_examples=150, deadline=None)
@given(oracle_scalars, st.one_of(oracle_scalars, oracle_divisors))
def test_scalar_ops_match_the_gcd_reference(a, b):
    want = _reference_ops(a, b)
    got = _program_ops(a, b, want)
    for name in want:
        _assert_tower(got[name])
        assert got[name] == want[name], name
        assert scalar_str(got[name]) == scalar_str(want[name]), name


@settings(max_examples=100, deadline=None)
@given(oracle_scalars, st.integers(-3, 3))
def test_int_operands_match_fraction_operands(a, k):
    """A plain int on either side acts as the Fraction it coerces to, and
    every result stays in the tower (never an int or a float)."""
    f = Fraction(k)
    pairs = [(a + k, a + f), (k + a, f + a), (a - k, a - f), (k - a, f - a),
             (a * k, a * f), (k * a, f * a)]
    if k:
        pairs.append((a / k, a / f))
    if ncalg._is_tpoly(_num_den(a)[0]) and a:
        pairs.append((k / a, f / a))
    for got, want in pairs:
        _assert_tower(got)
        assert got == want and scalar_str(got) == scalar_str(want)


def test_same_denominator_sums_match_the_gcd_reference():
    t, w1 = var(TVAR), var("w1")
    dens = [t, t * t, t * t - 1, (t - 1) * (t + 2)]
    nums = [Fraction(3), w1, t - 1, (t + 2) * w1, t * t - t]
    for den in dens:
        for n1 in nums:
            for n2 in nums:
                a = _reference_ratfunc(n1, den)
                b = _reference_ratfunc(_neg(n2), den)
                for x, y in ((a, b), (a, a)):
                    got, want = x + y, _reference_add(x, y)
                    assert got == want and scalar_str(got) == scalar_str(want)


def test_scalar_ops_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    def sym(x):
        return parse_expr(scalar_str(x), transformations=standard_transformations + (convert_xor,))

    t = sympy.Symbol(TVAR)

    @settings(max_examples=40, deadline=None)
    @given(oracle_scalars, st.one_of(oracle_scalars, oracle_divisors))
    def check(a, b):
        sa, sb = sym(a), sym(b)
        expected = {"add": sa + sb, "sub": sa - sb, "mul": sa * sb, "neg": -sa,
                    "dt": sympy.diff(sa, t)}
        if sb != 0 and sb.free_symbols <= {t}:
            expected["div"] = sa / sb
        for n in POWERS:
            if n >= 0 or (sa != 0 and sa.free_symbols <= {t}):
                expected["pow", n] = sa ** n
        got = _program_ops(a, b, expected)
        for name, want in expected.items():
            assert sympy.cancel(sym(got[name]) - want) == 0, name

    check()


def test_scalar_pow_by_squaring_matches_repeated_products():
    t, w1 = var(TVAR), var("w1")
    for base in (t + w1, (w1 + 1) / (t - 1), w1 / t, 3 / (t + 1), Fraction(-2, 3)):
        out = Fraction(1)
        for n in range(12):
            assert base ** n == out
            if ncalg._is_tpoly(_num_den(base)[0]):  # negative powers need Q(t)
                assert base ** -n == 1 / out
            out = out * base


# ------------------------------------------------------ process-wide caches

def test_shuffle_cache_stays_within_its_bound(monkeypatch):
    p = random_lie_poly(random.Random(5), XY, 6)
    monkeypatch.setattr(ncalg, "_SHUFFLE_CACHE", {})
    assert is_lie_ree(p)
    unbounded = len(ncalg._SHUFFLE_CACHE)
    bound = 64
    assert unbounded > bound  # the sweep would pass the bound
    monkeypatch.setattr(ncalg, "_SHUFFLE_CACHE", {})
    monkeypatch.setattr(ncalg, "_SHUFFLE_CACHE_MAX", bound)
    assert is_lie_ree(p)
    assert 0 < len(ncalg._SHUFFLE_CACHE) <= bound
    assert not is_lie_ree(p + concat_mul(NcPoly.letter(XY, 0), p))
    assert len(ncalg._SHUFFLE_CACHE) <= bound
    assert shuffle_words((0, 1), (1,)) == {(0, 1, 1): 2, (1, 0, 1): 1}
