"""Free group words: reduction, the Magnus expansion, lower-central-series
degree, the leading-Lie-element map, and the integer leading-term layer
against the exp-Magnus series."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from chenlie.chenint import PairingTable, is_grouplike, pair_graded, ts_mul, ts_inv
from chenlie.freegrp import (
    GroupWord,
    commutator,
    gw_inv,
    gw_mul,
    lcs_degree,
    leading_term,
    magnus,
    phi_inverse,
)
from chenlie.liealg import expand, is_lie
from chenlie.ncalg import NcPoly, homogeneous_part
from chenlie.parser import parse_gw, parse_lie

from conftest import XY, XYZ, random_groupword, random_lietree, tree_to_gw
from oracles import magnus_exp

A = GroupWord.generator(XY, 0)
B = GroupWord.generator(XY, 1)
E = GroupWord.identity(XY)


# -------------------------------------------------------------- reduction

def test_reduction_is_automatic():
    g = GroupWord(XY, ((0, 1), (1, 1), (1, -1)))
    assert g == A and g.entries == ((0, 1),)
    assert GroupWord(XY, ((0, 1), (0, -1))) == E
    # reduction cascades: x y y^-1 x^-1 -> 1
    assert GroupWord(XY, ((0, 1), (1, 1), (1, -1), (0, -1))) == E


def test_entry_validation():
    with pytest.raises(ValueError):
        GroupWord(XY, ((0, 2),))
    with pytest.raises(ValueError):
        GroupWord(XY, ((5, 1),))


def test_group_laws():
    assert gw_mul(A, gw_inv(A)) == E
    assert gw_inv(gw_mul(A, B)) == gw_mul(gw_inv(B), gw_inv(A))
    assert gw_mul(gw_mul(A, B), gw_inv(B)) == A
    assert gw_mul(E, A) == A and gw_mul(A, E) == A
    assert E.is_identity() and not A.is_identity()
    assert len(commutator(A, B)) == 4


def test_commutator_of_commuting_elements():
    assert commutator(A, A) == E
    assert commutator(A, gw_inv(A)) == E
    assert commutator(A, E) == E


def test_str_forms():
    assert str(E) == "1"
    assert str(commutator(A, B)) == "x y x^-1 y^-1"
    assert str(gw_inv(A)) == "x^-1"


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_group_laws_random(r):
    g = random_groupword(r, XY, 6)
    h = random_groupword(r, XY, 6)
    k = random_groupword(r, XY, 6)
    assert gw_mul(gw_mul(g, h), k) == gw_mul(g, gw_mul(h, k))
    assert gw_mul(g, gw_inv(g)) == E
    assert gw_inv(gw_inv(g)) == g


# ----------------------------------------------------------------- magnus

def test_magnus_generator_is_exponential():
    s = magnus(A, 3)
    assert s.coeff(()) == 1
    assert s.coeff((0,)) == 1
    from fractions import Fraction
    assert s.coeff((0, 0)) == Fraction(1, 2)
    assert s.coeff((0, 0, 0)) == Fraction(1, 6)
    assert s.coeff((1,)) == 0


def test_magnus_identity():
    assert magnus(E, 3).poly == NcPoly.one(XY)
    assert magnus(E, 10**9).poly == NcPoly.one(XY)  # no level is filled


def test_magnus_requires_positive_degree():
    with pytest.raises(ValueError):
        magnus(A, 0)


@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_magnus_is_homomorphism(r, n):
    g = random_groupword(r, XY, 5)
    h = random_groupword(r, XY, 5)
    assert magnus(gw_mul(g, h), n).poly == ts_mul(magnus(g, n),
                                                  magnus(h, n)).poly
    assert magnus(gw_inv(g), n).poly == ts_inv(magnus(g, n)).poly


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_magnus_is_grouplike(r):
    assert is_grouplike(magnus(random_groupword(r, XY, 6), 4))


# ---------------------------------------------------- lcs degree, phi map

def test_lcs_degree_examples():
    assert lcs_degree(A) == 1
    assert lcs_degree(gw_mul(A, B)) == 1
    assert lcs_degree(commutator(A, B)) == 2
    assert lcs_degree(commutator(commutator(A, B), A)) == 3
    assert lcs_degree(E) is None
    # bound too small reports None rather than guessing
    assert lcs_degree(commutator(commutator(A, B), A), 2) is None


def test_lcs_degree_of_deep_nesting():
    gamma = commutator(commutator(commutator(A, B), A), commutator(A, B))
    assert lcs_degree(gamma) == 5


def test_phi_inverse_examples():
    assert phi_inverse(A) == NcPoly.letter(XY, 0)
    assert phi_inverse(commutator(A, B)) == expand(parse_lie("[x,y]"), XY)
    with pytest.raises(ValueError):
        phi_inverse(E)
    with pytest.raises(ValueError):
        phi_inverse(commutator(commutator(A, B), A), 2)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_phi_inverse_respects_brackets(r, k):
    """The leading Lie element of an iterated commutator built from a
    bracket tree is exactly the tree's expansion (when nonzero)."""
    tree = random_lietree(r, XY, k)
    e = expand(tree, XY)
    delta = tree_to_gw(tree, XY)
    if e.is_zero():
        assert lcs_degree(delta) != k
    else:
        assert lcs_degree(delta) == k
        assert phi_inverse(delta) == e


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_phi_inverse_lands_in_lie_algebra(r):
    delta = random_groupword(r, XY, 6)
    if not delta.is_identity():
        assert is_lie(phi_inverse(delta))


def test_leading_terms_need_no_magnus_series(monkeypatch):
    """lcs_degree, phi_inverse and pair_graded read the integer Fox layer:
    with the exp-Magnus series patched to raise they give the same answers."""
    from chenlie import freegrp

    def refuse(delta, n):
        raise AssertionError("magnus called")

    monkeypatch.setattr(freegrp, "magnus", refuse)
    delta = commutator(commutator(A, B), B)
    lead = expand(parse_lie("[[x,y],y]"), XY)
    table = PairingTable.identity(XY)
    assert lcs_degree(delta) == 3 and lcs_degree(delta, 2) is None
    assert phi_inverse(delta) == lead
    for w in XY.words(3):
        assert pair_graded(table, delta, w) == lead.coeff(w)
    assert pair_graded(table, commutator(commutator(A, B), gw_inv(B)), (0, 1)) == 0
    with pytest.raises(ValueError, match="degree 2 < word length 3"):
        pair_graded(table, commutator(A, B), (0, 1, 1))


def _magnus_leading(delta, n):
    """(k, degree-k part) from the exp-Magnus series of the oracle, which
    shares no code with the Fox layer."""
    s = magnus_exp(delta, n).poly
    k = min((len(w) for w in s.terms if w), default=None)
    return None if k is None else (k, homogeneous_part(s, k))


@st.composite
def loops(draw):
    """Group words over two or three letters: random words (inverse and
    repeated letters), iterated commutators, their conjugates and powers,
    products whose leading parts cancel, and the identity."""
    alphabet = draw(st.sampled_from([XY, XYZ]))
    r = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["word", "power", "commutator", "commutator",
                                 "cancel", "cancel", "identity"]))
    if kind == "word":
        return random_groupword(r, alphabet, r.randint(1, 8))
    if kind == "power":
        g = GroupWord.generator(alphabet, r.randrange(len(alphabet)))
        return reduce(gw_mul, [g] * r.randint(1, 6), random_groupword(r, alphabet, 2))
    if kind == "identity":
        g = random_groupword(r, alphabet, 5)
        return gw_mul(g, gw_inv(g))
    k = r.randint(2, 4 if alphabet is XY else 3)
    c = tree_to_gw(random_lietree(r, alphabet, k), alphabet)
    g = random_groupword(r, alphabet, r.randint(1, 3))
    conj = gw_mul(gw_mul(g, c), gw_inv(g))
    if kind == "commutator":
        return c if r.random() < 0.5 else gw_mul(conj, conj)
    # c times a conjugate of c^-1: the degree-k parts cancel
    return gw_mul(c, gw_inv(conj))


@settings(max_examples=60, deadline=None)
@given(loops(), st.integers(1, 4))
def test_leading_term_matches_the_exp_magnus_series(delta, n):
    assert leading_term(delta, n) == _magnus_leading(delta, n)
    got = leading_term(delta, 5)
    assert got == _magnus_leading(delta, 5)
    if got is None:
        assert lcs_degree(delta, 5) is None
        with pytest.raises(ValueError):
            phi_inverse(delta, 5)
        return
    k, part = got
    assert all(c.denominator == 1 for c in part.terms.values())
    assert lcs_degree(delta, 5) == k and phi_inverse(delta, 5) == part
    assert leading_term(delta, k) == got
    if k > 1:  # a bound below the lcs degree finds nothing
        assert leading_term(delta, k - 1) is None
        with pytest.raises(ValueError, match="raise n_max"):
            phi_inverse(delta, k - 1)


@st.composite
def letter_powers(draw):
    """x^k for one letter x of two or three, k from -12 to 12."""
    alphabet = draw(st.sampled_from([XY, XYZ]))
    i = draw(st.integers(0, len(alphabet) - 1))
    k = draw(st.integers(-12, 12))
    return GroupWord(alphabet, ((i, 1 if k > 0 else -1),) * abs(k))


@settings(max_examples=60, deadline=None)
@given(st.one_of(loops(), letter_powers()), st.integers(1, 7))
def test_magnus_matches_the_exp_series(delta, n):
    """The X -> e^X - 1 image of the Fox expansion is the product of the
    letters' exp series, on loops and on one-letter powers x^k."""
    assert magnus(delta, n).poly == magnus_exp(delta, n).poly


def test_leading_term_edge_cases():
    assert leading_term(E) is None and leading_term(E, 1) is None
    assert leading_term(A, 1) == (1, NcPoly.letter(XY, 0))
    assert leading_term(gw_inv(A)) == (1, NcPoly.letter(XY, 0).scale(-1))
    # x^-3 y^2: the degree-1 part is -3 x + 2 y
    w = GroupWord(XY, ((0, -1),) * 3 + ((1, 1),) * 2)
    assert leading_term(w) == (1, NcPoly(XY, {(0,): -3, (1,): 2}))
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        leading_term(A, 0)


def test_expansions_refuse_work_past_the_limit(monkeypatch):
    from chenlie import freegrp

    delta = commutator(commutator(A, B), B)  # 8 letters, lcs degree 3
    assert len(delta) == 8
    monkeypatch.setattr(freegrp, "MAX_MAGNUS_WORK", 120)
    # degree 3 costs 8 * 15 = 120 steps, at the limit
    assert lcs_degree(delta) == 3
    assert magnus(delta, 3).poly == magnus(delta, 2).poly + phi_inverse(delta)
    with pytest.raises(ValueError, match="8-letter group word to degree 4 "
                       "could take 248 steps, over the limit of 120"):
        magnus(delta, 4)
    # a huge bound is refused from a closed form, without a loop
    with pytest.raises(ValueError, match="over the limit of 120"):
        magnus(delta, 10**9)
    with pytest.raises(ValueError, match="over the limit of 120"):
        magnus(GroupWord(XY, ((0, 1),)), 10**9)
    monkeypatch.setattr(freegrp, "MAX_MAGNUS_WORK", 119)
    with pytest.raises(ValueError, match="8-letter group word to degree 3 "
                       "could take 120 steps, over the limit of 119"):
        lcs_degree(delta)
    # one letter: n + 1 words, and the deepening stops at degree 1
    assert leading_term(GroupWord(XY, ((1, -1),) * 59), 8)[0] == 1
    # past the work limit, a numerator's bound len^n can pass 4300 digits
    # (log10 1100! is about 2864), refused before any expansion
    monkeypatch.setattr(freegrp, "MAX_MAGNUS_WORK", 10**9)
    with pytest.raises(ValueError, match="10000-letter group word to degree 1100 "
                       "could reach 4401 digits in a coefficient"):
        magnus(GroupWord(XY, ((0, 1),) * 10000), 1100)


def test_phi_inverse_is_leading_magnus_term():
    delta = commutator(commutator(A, B), B)
    k = lcs_degree(delta)
    lead = phi_inverse(delta)
    s = magnus(delta, k)
    assert homogeneous_part(s.poly, k) == lead
    for j in range(1, k):
        assert homogeneous_part(s.poly, j).is_zero()


def test_parse_groupword_round_trip():
    g = parse_gw("(x, y) x^-1", alphabet=XY)
    assert g == gw_mul(commutator(A, B), gw_inv(A))
    assert parse_gw(str(g), alphabet=XY) == g
