"""Free group words: reduction, the Magnus expansion, lower-central-series
degree, and the leading-Lie-element map."""

import pytest
from hypothesis import given, settings, strategies as st

from chenlie.chenint import is_grouplike, ts_mul, ts_inv
from chenlie.freegrp import (
    GroupWord,
    commutator,
    gw_inv,
    gw_mul,
    lcs_degree,
    magnus,
    phi_inverse,
)
from chenlie.liealg import expand, is_lie
from chenlie.ncalg import NcPoly, homogeneous_part
from chenlie.parser import parse_gw, parse_lie

from conftest import XY, random_groupword, random_lietree, tree_to_gw

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


def test_phi_inverse_builds_one_magnus_series(monkeypatch):
    from chenlie import freegrp
    calls = []

    def counting(delta, n):
        calls.append(n)
        return magnus(delta, n)

    monkeypatch.setattr(freegrp, "magnus", counting)
    delta = commutator(commutator(A, B), B)
    assert phi_inverse(delta) == expand(parse_lie("[[x,y],y]"), XY)
    assert len(calls) == 1


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
