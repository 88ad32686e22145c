"""Iterated path integrals: truncated series calculus, group-like tests,
integral models with the axiom suite, and the graded pairing."""

from fractions import Fraction
from math import factorial
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chenlie.chenint import (
    IntegralModel,
    PairingTable,
    TruncSeries,
    canonical_model,
    evaluate,
    is_grouplike,
    pair_graded,
    ts_exp,
    ts_inv,
    ts_log,
    ts_mul,
)
from chenlie.freegrp import GroupWord, commutator, gw_inv, gw_mul, magnus
from chenlie.liealg import expand, hall_basis
from chenlie.ncalg import (
    Alphabet,
    NcPoly,
    concat_mul,
    homogeneous_part,
    inner,
    shuffle,
    var,
)

from conftest import (
    SCALAR_KINDS,
    XY,
    XYZ,
    random_groupword,
    random_homogeneous,
    random_lie_element,
    random_lie_poly,
    random_scalar,
    tree_to_gw,
)
from oracles import is_grouplike_sweep, path_series

X = NcPoly.letter(XY, 0)
Y = NcPoly.letter(XY, 1)


# ------------------------------------------------------- truncated series

def test_truncseries_truncates_on_construction():
    s = TruncSeries(1, NcPoly.one(XY) + X + concat_mul(X, X))
    assert s.coeff(()) == 1 and s.coeff((0,)) == 1
    assert s.poly.max_degree() == 1
    assert TruncSeries.one(XY, 3).poly == NcPoly.one(XY)


def test_ts_mul_truncates_to_min_degree():
    a = TruncSeries(3, NcPoly.one(XY) + X)
    b = TruncSeries(2, NcPoly.one(XY) + Y)
    p = ts_mul(a, b)
    assert p.degree == 2


def test_ts_exp_golden():
    s = ts_exp(TruncSeries(3, X))
    assert s.poly == (NcPoly.one(XY) + X
                      + concat_mul(X, X).scale(Fraction(1, 2))
                      + concat_mul(X, concat_mul(X, X)).scale(Fraction(1, 6)))


def test_ts_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        ts_exp(TruncSeries(2, NcPoly.one(XY) + X))


def test_ts_log_requires_unit_constant():
    with pytest.raises(ValueError):
        ts_log(TruncSeries(2, X))


def test_ts_inv_requires_invertible_constant():
    with pytest.raises((ValueError, ZeroDivisionError)):
        ts_inv(TruncSeries(2, X))


def test_series_round_trips():
    for n in (1, 2, 4):
        p = TruncSeries(n, X + concat_mul(Y, X).scale(Fraction(2, 3)))
        assert ts_log(ts_exp(p)).poly == p.poly
        g = ts_exp(p)
        assert ts_mul(g, ts_inv(g)).poly == NcPoly.one(XY)
        assert ts_exp(ts_log(ts_mul(g, g))).poly == ts_mul(g, g).poly


# ------------------------------------------------------------- group-like

def test_is_grouplike_examples():
    assert is_grouplike(ts_exp(TruncSeries(4, X)))
    assert is_grouplike(TruncSeries.one(XY, 3))
    assert not is_grouplike(TruncSeries(2, NcPoly.one(XY) + concat_mul(X, Y)))
    assert not is_grouplike(TruncSeries(1, X))  # constant term 0, not 1
    # products of group-like series are group-like
    g = ts_mul(ts_exp(TruncSeries(3, X)), ts_exp(TruncSeries(3, Y)))
    assert is_grouplike(g)
    assert is_grouplike(ts_inv(g))


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_magnus_series_is_grouplike(r):
    delta = random_groupword(r, XY, 5)
    assert is_grouplike(magnus(delta, 4))


def test_exp_of_lie_is_grouplike(rng):
    p = random_lie_poly(rng, XY, 2) + random_lie_poly(rng, XY, 3)
    assert is_grouplike(ts_exp(TruncSeries(4, p)))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([XY, XYZ]),
       st.sampled_from(SCALAR_KINDS), st.sampled_from(["exp", "perturbed", "scaled"]))
def test_is_grouplike_matches_the_shuffle_sweep(r, ab, kind, shape):
    """Exponentials of Lie elements, and the same series with one more
    word or with constant term 2."""
    n = r.randint(2, 4)
    s = ts_exp(TruncSeries(n, random_lie_element(r, ab, range(1, n + 1), kind, 2)))
    if shape == "perturbed":
        word = tuple(r.randrange(len(ab)) for _ in range(r.randint(1, n)))
        s = TruncSeries(n, s.poly + NcPoly.from_word(ab, word, random_scalar(r, kind)))
    elif shape == "scaled":
        s = TruncSeries(n, s.poly.scale(2))
    assert is_grouplike(s) == is_grouplike_sweep(s)
    if shape == "exp":
        assert is_grouplike(s)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(SCALAR_KINDS),
       st.sampled_from(["exp", "zero", "perturbed", "scaled"]))
def test_one_letter_grouplike_closed_form_matches_the_sweep(r, kind, shape):
    """Series in one letter: exp(c X) and the same with one word X^j
    (j = 0 included) changed, or scaled to constant term 2."""
    n, i = r.randint(1, 6), r.randrange(2)
    c = Fraction(0) if shape == "zero" else random_scalar(r, kind)
    s = ts_exp(TruncSeries(n, NcPoly.letter(XY, i).scale(c)))
    if shape == "perturbed":
        word = (i,) * r.randint(0, n)
        s = TruncSeries(n, s.poly + NcPoly.from_word(XY, word, random_scalar(r, kind)))
    elif shape == "scaled":
        s = TruncSeries(n, s.poly.scale(2))
    assert is_grouplike(s) == is_grouplike_sweep(s)
    if shape != "perturbed":  # X^1 changed at n = 1 is still group-like
        assert is_grouplike(s) == (shape != "scaled")


def test_one_letter_grouplike_of_high_degree():
    s = ts_exp(TruncSeries(200, X))
    assert is_grouplike(s)
    for j in (0, 2, 200):  # the constant term, a middle and the top degree
        assert not is_grouplike(TruncSeries(200, s.poly + NcPoly.from_word(XY, (0,) * j)))


# ---------------------------------------------------------------- models

def test_canonical_model_values():
    m = canonical_model(XY, 6)
    a = GroupWord.generator(XY, 0)
    for n in range(7):
        w = NcPoly.from_word(XY, (0,) * n)
        assert evaluate(m, a, w) == Fraction(1, factorial(n))
    assert evaluate(m, a, NcPoly.from_word(XY, (0,) * 6)) == Fraction(1, 720)
    # a form letter never traversed integrates to zero
    assert evaluate(m, a, Y) == 0


def test_model_validation():
    bad = TruncSeries(2, NcPoly.one(XY) + concat_mul(X, Y))
    with pytest.raises(ValueError):
        IntegralModel(XY, XY, 2, (bad, ts_exp(TruncSeries(2, Y))))
    with pytest.raises(ValueError):
        IntegralModel(XY, XY, 2, (ts_exp(TruncSeries(2, X)),))


def test_evaluate_unit_and_degree_guard():
    m = canonical_model(XY, 3)
    d = random_groupword(__import__("random").Random(5), XY, 4)
    assert evaluate(m, d, NcPoly.one(XY)) == 1
    with pytest.raises(ValueError):
        evaluate(m, d, NcPoly.from_word(XY, (0,) * 4))


def test_path_series_caches_inverses():
    m = canonical_model(XY, 3)
    a = GroupWord.generator(XY, 0)
    s = path_series(m, gw_mul(a, gw_inv(a)))
    assert s.poly == NcPoly.one(XY)


# ------------------------------------- Chen-identity evaluation vs oracle

def _symbolic_grouplike_model(degree=3):
    """Generator i |-> exp(a_i x + b_i y + c_i [x,y]) with indeterminate
    coefficients: a group-like model over MPoly scalars."""
    xy = concat_mul(X, Y) - concat_mul(Y, X)
    series = tuple(
        ts_exp(TruncSeries(degree, X.scale(var(f"a{i}")) + Y.scale(var(f"b{i}"))
                           + xy.scale(var(f"c{i}"))))
        for i in range(2))
    return IntegralModel(XY, XY, degree, series)


@pytest.fixture(scope="module")
def oracle_models():
    return {"canonical": canonical_model(XY, 4),
            "random": _random_grouplike_model(random.Random(4242)),
            "symbolic": _symbolic_grouplike_model()}


ORACLE_LOOPS = {
    "inverse letters": ((0, 1), (1, -1), (0, -1), (1, 1), (1, 1), (0, -1)),
    "repeated letters": ((0, 1), (0, 1), (1, 1), (1, 1), (1, 1), (0, 1)),
    "identity": (),
}


@pytest.mark.parametrize("model_name", ["canonical", "random", "symbolic"])
@pytest.mark.parametrize("loop_name", sorted(ORACLE_LOOPS))
def test_evaluate_matches_path_series_oracle(oracle_models, model_name, loop_name):
    """The infix program agrees exactly with pairing the full path series."""
    rng = random.Random(f"{model_name}-{loop_name}")
    m = oracle_models[model_name]
    delta = GroupWord(XY, ORACLE_LOOPS[loop_name])
    full = path_series(m, delta).poly
    mixed = NcPoly(XY, {(): 3, (0,): Fraction(-1, 2), (0, 1): 2, (1, 0, 0): var("s")})
    dense = NcPoly(XY, {w: rng.randint(-3, 3) for k in range(m.degree + 1)
                        for w in XY.words(k)})
    low = NcPoly(XY, {w: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                      for w in XY.words(m.degree - 1)})
    single = NcPoly.from_word(XY, (1, 0, 1))
    for omega in (mixed, dense, low, single, NcPoly.zero(XY)):
        assert evaluate(m, delta, omega) == inner(full, omega)


def _fraction_lie_series(r, ab, n):
    """exp of a random Lie element of degrees 1..n whose coefficients have
    denominators up to 6."""
    p = NcPoly.zero(ab)
    for k in range(1, n + 1):
        trees = hall_basis(ab, k).elements
        for tree in r.sample(trees, min(2, len(trees))):
            p = p + expand(tree, ab).scale(Fraction(r.randint(-5, 5), r.randint(1, 6)))
    return ts_exp(TruncSeries(n, p))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([XY, XYZ]))
def test_integer_chen_steps_match_the_path_series(r, ab):
    """On random rational group-like models, the common-denominator Chen
    loop agrees with pairing the full path series, along a random reduced
    loop with inverse letters and along the empty loop, for omega of mixed
    degrees, with a symbolic coefficient, and zero."""
    n = r.randint(1, 4)
    m = IntegralModel(ab, ab, n, tuple(_fraction_lie_series(r, ab, n) for _ in ab.letters))
    words = [w for k in range(n + 1) for w in ab.words(k)]
    mixed = NcPoly(ab, {w: Fraction(r.randint(-4, 4), r.randint(1, 5))
                        for w in r.sample(words, min(6, len(words)))})
    symbolic = mixed + NcPoly.from_word(ab, r.choice(words), var("s"))
    for delta in (random_groupword(r, ab, r.randint(1, 8)), GroupWord.identity(ab)):
        full = path_series(m, delta).poly
        for omega in (mixed, symbolic, NcPoly.zero(ab)):
            assert evaluate(m, delta, omega) == inner(full, omega)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([XY, XYZ]))
def test_canonical_values_are_the_magnus_coefficients(r, ab):
    """In the canonical model, the integral of a word along a loop is its
    coefficient in the loop's Magnus series."""
    n = r.randint(1, 4)
    delta = random_groupword(r, ab, r.randint(0, 10))
    series = magnus(delta, n)
    m = canonical_model(ab, n)
    for k in range(n + 1):
        for w in ab.words(k):
            assert evaluate(m, delta, NcPoly.from_word(ab, w)) == series.coeff(w)


def test_models_keep_each_series_over_its_common_denominator(oracle_models):
    """A rational series becomes (lcm of its denominators, int terms); a
    series with a symbolic coefficient keeps its terms, with D = 1."""
    d, terms = oracle_models["canonical"].scaled[1]
    assert d == 24
    assert terms == {(): 24, (1,): 24, (1, 1): 12, (1, 1, 1): 4, (1, 1, 1, 1): 1}
    for s, (d, terms) in zip(oracle_models["random"].series,
                             oracle_models["random"].scaled):
        assert all(type(c) is int for c in terms.values())
        assert {w: Fraction(c, d) for w, c in terms.items()} == s.poly.terms
    for s, (d, terms) in zip(oracle_models["symbolic"].series,
                             oracle_models["symbolic"].scaled):
        assert d == 1 and terms == s.poly.terms


def test_evaluate_leaves_a_fresh_interpreter_silent():
    """Importing chenlie, evaluating on a canonical and a symbolic model and
    exiting writes nothing to stdout or stderr: no exit hook, no shutdown
    warning, so a caller's last output line stays its own."""
    import chenlie
    code = (
        "from chenlie.chenint import IntegralModel, TruncSeries, canonical_model, "
        "evaluate, ts_exp\n"
        "from chenlie.freegrp import GroupWord, commutator\n"
        "from chenlie.ncalg import Alphabet, NcPoly, var\n"
        "ab = Alphabet(('x', 'y'))\n"
        "x, y = NcPoly.letter(ab, 0), NcPoly.letter(ab, 1)\n"
        "loop = commutator(GroupWord.generator(ab, 0), GroupWord.generator(ab, 1))\n"
        "assert evaluate(canonical_model(ab, 2), loop, x * y) == 1\n"
        "series = tuple(ts_exp(TruncSeries(2, x.scale(var('a')) + y.scale(var('b%d' % i))))\n"
        "               for i in range(2))\n"
        "evaluate(IntegralModel(ab, ab, 2, series), loop, x * y)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(chenlie.__file__)))
    proc = subprocess.run([sys.executable, "-W", "default", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_bucketed_ts_mul_matches_truncated_concat_mul(rng):
    for da, db in ((4, 2), (2, 4), (3, 3), (0, 3)):
        pa = NcPoly.one(XY) + sum((random_homogeneous(rng, XY, k) for k in range(1, 5)),
                                  NcPoly.zero(XY))
        pb = NcPoly.one(XY) + sum((random_homogeneous(rng, XY, k) for k in range(1, 5)),
                                  NcPoly.zero(XY))
        a, b = TruncSeries(da, pa), TruncSeries(db, pb)
        n = min(da, db)
        want = NcPoly(XY, {w: c for w, c in concat_mul(a.poly, b.poly).items()
                           if len(w) <= n})
        got = ts_mul(a, b)
        assert got.degree == n and got.poly == want


def test_evaluate_builds_no_series(monkeypatch):
    """evaluate never calls the full-series products it replaces."""
    from chenlie import chenint
    m = _random_grouplike_model(random.Random(7))
    delta = GroupWord(XY, ORACLE_LOOPS["inverse letters"])
    omega = NcPoly(XY, {(0, 1): 2, (1, 1, 0): 1, (): 1})
    want = inner(path_series(m, delta).poly, omega)

    def boom(*args, **kwargs):
        raise AssertionError("full series built")

    for name in ("ts_mul", "ts_inv"):
        monkeypatch.setattr(chenint, name, boom)
    assert evaluate(m, delta, omega) == want


# --------------------------------------------------------------- axioms

def _random_grouplike_model(rng, degree=4):
    """Generator i |-> exp of a random Lie element (degree >= 1)."""
    series = []
    for _ in XY.letters:
        p = NcPoly.zero(XY)
        for k in range(1, degree + 1):
            p = p + random_lie_poly(rng, XY, k)
        series.append(ts_exp(TruncSeries(degree, p)))
    return IntegralModel(XY, XY, degree, tuple(series))


def test_axiom_concatenation(rng):
    """Integral over a product path splits as a prefix/suffix convolution."""
    m = _random_grouplike_model(rng)
    alpha = random_groupword(rng, XY, 4)
    beta = random_groupword(rng, XY, 4)
    for word in ((0, 1), (1, 0, 0), (0, 1, 1, 0)):
        lhs = evaluate(m, gw_mul(alpha, beta), NcPoly.from_word(XY, word))
        rhs = Fraction(0)
        for s in range(len(word) + 1):
            rhs = rhs + (evaluate(m, alpha, NcPoly.from_word(XY, word[:s]))
                         * evaluate(m, beta, NcPoly.from_word(XY, word[s:])))
        assert lhs == rhs


def test_axiom_inverse_path(rng):
    """Reversing the path reverses the word, up to the sign (-1)^r."""
    m = _random_grouplike_model(rng)
    alpha = random_groupword(rng, XY, 5)
    for word in ((0,), (0, 1), (1, 1, 0), (0, 1, 0, 1)):
        lhs = evaluate(m, gw_inv(alpha), NcPoly.from_word(XY, word))
        rhs = evaluate(m, alpha, NcPoly.from_word(XY, word[::-1]))
        assert lhs == rhs * (-1) ** len(word)


def test_axiom_shuffle_relations(rng):
    """Products of integrals over one path satisfy the shuffle relations."""
    m = _random_grouplike_model(rng)
    delta = random_groupword(rng, XY, 5)
    for u, v in (((0,), (1,)), ((0, 1), (1,)), ((0, 0), (1, 1))):
        pu, pv = NcPoly.from_word(XY, u), NcPoly.from_word(XY, v)
        lhs = evaluate(m, delta, pu) * evaluate(m, delta, pv)
        assert lhs == evaluate(m, delta, shuffle(pu, pv))


def test_commutator_kills_degree_one(rng):
    m = _random_grouplike_model(rng)
    c = commutator(random_groupword(rng, XY, 3), random_groupword(rng, XY, 3))
    assert evaluate(m, c, X) == 0
    assert evaluate(m, c, Y) == 0


def test_vanishing_below_lcs_degree():
    """A nested bracket realized as an iterated commutator integrates to
    zero against every form word shorter than its bracket depth."""
    from chenlie.parser import parse_lie
    tree = parse_lie("[x,[x,y]]")
    delta = tree_to_gw(tree, XY)
    m = canonical_model(XY, 4)
    for k in (1, 2):
        for w in XY.words(k):
            assert evaluate(m, delta, NcPoly.from_word(XY, w)) == 0


def test_evaluate_matches_graded_pairing():
    """For a commutator of depth k and a degree-k word, the canonical
    integral equals the pairing of the word with the leading Magnus term."""
    from chenlie.parser import parse_lie
    tree = parse_lie("[[x,y],y]")
    delta = tree_to_gw(tree, XY)
    m = canonical_model(XY, 3)
    table = PairingTable.identity(XY)
    for w in XY.words(3):
        direct = evaluate(m, delta, NcPoly.from_word(XY, w))
        graded = pair_graded(table, delta, w)
        assert direct == graded


# --------------------------------------------------------- graded pairing

def test_pair_graded_basics():
    table = PairingTable.identity(XY)
    a = GroupWord.generator(XY, 0)
    assert pair_graded(table, a, ()) == 1
    assert pair_graded(table, a, (0,)) == 1
    assert pair_graded(table, a, (1,)) == 0
    c = commutator(a, GroupWord.generator(XY, 1))
    assert pair_graded(table, c, (0, 1)) == 1
    assert pair_graded(table, c, (1, 0)) == -1
    with pytest.raises(ValueError):
        pair_graded(table, a, (0, 1))  # nonzero degree-1 part below length 2


def test_pair_graded_symbolic_determinant():
    """Pairing a commutator against a two-letter word through a fully
    symbolic table produces the 2x2 determinant of table entries."""
    paths = Alphabet(("a", "b"))
    forms = Alphabet(("f1", "f2"))
    table = PairingTable.symbolic(paths, forms)
    c = commutator(GroupWord.generator(paths, 0),
                   GroupWord.generator(paths, 1))
    got = pair_graded(table, c, (0, 1))
    v = {(p, f): var(f"v_{p}_{f}") for p in ("a", "b") for f in ("f1", "f2")}
    det = v[("a", "f1")] * v[("b", "f2")] - v[("a", "f2")] * v[("b", "f1")]
    assert got == det
    # equal columns force antisymmetry to kill the pairing
    assert pair_graded(table, c, (0, 0)) == 0


def test_pair_graded_zero_leading_part_is_zero():
    table = PairingTable.identity(XY)
    a = GroupWord.generator(XY, 0)
    c = commutator(a, GroupWord.generator(XY, 1))
    # depth-2 commutator against a length-3 word: parts 1, 2 vanish only
    # through degree 2, so a length-3 word is out of reach
    with pytest.raises(ValueError):
        pair_graded(table, c, (0, 1, 0))
    # but the triple commutator has zero parts 1 and 2: length-3 words pair
    # phi-inverse of ((x,y),x) is [[x,y],x] = 2 xyx - yxx - xxy
    deep = commutator(c, a)
    assert pair_graded(table, deep, (0, 1, 0)) == 2
    assert pair_graded(table, deep, (1, 0, 0)) == -1
    assert pair_graded(table, deep, (1, 1, 1)) == 0


def test_pairing_matrix_nonsingular_small():
    """Hall expansions against their commutator realizations through the
    identity table give a nonsingular matrix (degree 3 spot check; the
    full window is covered by the acceptance tests)."""
    k = 3
    basis = hall_basis(XY, k)
    exps = basis.expansions()
    gws = [tree_to_gw(t, XY) for t in basis.elements]
    table = PairingTable.identity(XY)
    mat = []
    for d in gws:
        row = []
        for e in exps:
            val = Fraction(0)
            for w, c in e.items():
                val = val + c * pair_graded(table, d, w)
            row.append(val)
        mat.append(row)
    det = (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0])
    assert det != 0
