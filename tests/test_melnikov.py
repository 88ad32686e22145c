"""Melnikov calculus: the Gauss-Manin derivation, nested integrands, the
p_k/C_k coefficient machinery, the order-5 vanishing example, and the
monodromy reduction in first and second grading."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chenlie import ncalg
from chenlie.liealg import expand
from chenlie.melnikov import (
    ALPHA,
    Connection,
    DELTA,
    GRADE2_BASIS,
    INTERSECTION,
    MONODROMY_OPS,
    WeightPair,
    apply_operator,
    ck,
    ck_closed_form,
    derive,
    example_ex_m5,
    lk_tree,
    melnikov_integrand,
    op_h,
    op_id,
    picard_lefschetz,
    pk_closed_form,
    pl_grade2,
    reduce_to_alpha,
    wedge,
)
from chenlie.ncalg import (
    Alphabet,
    NcPoly,
    TVAR,
    concat_mul,
    homogeneous_part,
    inner,
    scalar_str,
    var,
)

OM = Alphabet(("om1", "om2"))
W = WeightPair.symbolic()
T = var(TVAR)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(u, c):
    return tuple(a * c for a in u)


def vsub(u, v):
    return vadd(u, vscale(v, -1))


def is_zero_vec(u):
    return all(x == 0 for x in u)


# -------------------------------------------------------------- connection

def test_connection_validation():
    with pytest.raises(ValueError):
        Connection(OM, 0, ((1, 0), (0, 1)))  # vanishing denominator
    with pytest.raises(ValueError):
        Connection(OM, var(TVAR), ((1, 0),))  # not square
    conn = Connection.diagonal((W.w1, W.w2))
    assert conn.forms.letters == ("om1", "om2")
    assert conn.delta_poly == T


def test_derive_diagonal_forms():
    conn = Connection.diagonal((W.w1, W.w2))
    om1 = NcPoly.letter(OM, 0)
    d = derive(conn, om1)
    assert scalar_str(d.coeff((0,))) == "w1/t"
    assert d.coeff((1,)) == 0
    # scalar coefficients are differentiated in t
    p = om1.scale(T ** 2)
    dp = derive(conn, p)
    # d/dt(t^2) om1 + t^2 (w1/t) om1 = (2t + w1 t) om1
    assert dp.coeff((0,)) == T * 2 + W.w1 * T


def test_derive_leibniz(rng):
    conn = Connection.diagonal((Fraction(1, 3), Fraction(1, 2)))
    words = [(0,), (1,), (0, 1), (1, 0, 0)]
    for _ in range(10):
        p = NcPoly.from_word(OM, rng.choice(words), rng.randint(-3, 3))
        q = NcPoly.from_word(OM, rng.choice(words), rng.randint(-3, 3))
        lhs = derive(conn, concat_mul(p, q))
        rhs = concat_mul(derive(conn, p), q) + concat_mul(p, derive(conn, q))
        assert lhs == rhs


def test_derive_offdiagonal_mixes_letters():
    conn = Connection(OM, T, ((0, 1), (0, 0)))
    om1 = NcPoly.letter(OM, 0)
    d = derive(conn, om1)
    assert d.coeff((1,)) != 0 and d.coeff((0,)) == 0


# --------------------------------------------------------------- integrand

def test_integrand_first_orders():
    conn = Connection.diagonal((W.w1, W.w2))
    om = NcPoly.letter(OM, 0) + NcPoly.letter(OM, 1)
    assert melnikov_integrand(conn, om, 1) == om
    r2 = melnikov_integrand(conn, om, 2)
    assert r2.is_homogeneous() and r2.max_degree() == 2
    # om * om' with om' = (w1/t) om1 + (w2/t) om2
    assert scalar_str(r2.coeff((0, 1))) == "w2/t"
    assert scalar_str(r2.coeff((1, 0))) == "w1/t"


def test_integrand_validation():
    conn = Connection.diagonal((W.w1, W.w2))
    om = NcPoly.letter(OM, 0)
    with pytest.raises(ValueError):
        melnikov_integrand(conn, om, 0)
    with pytest.raises(ValueError):
        melnikov_integrand(conn, NcPoly.one(OM), 2)
    with pytest.raises(ValueError):
        melnikov_integrand(conn, NcPoly.zero(OM), 2)


def test_integrand_matches_weighted_word_sums():
    """t^(k-1) R_k = sum_i al1^i al2^(k-i) p_k(i) for the diagonal
    connection: nested derivatives organize into the p_k words."""
    al1, al2 = var("al1"), var("al2")
    conn = Connection.diagonal((W.w1, W.w2))
    om = (NcPoly.letter(OM, 0).scale(al1) + NcPoly.letter(OM, 1).scale(al2))
    for k in (2, 3, 4):
        lhs = melnikov_integrand(conn, om, k).scale(T ** (k - 1))
        rhs = NcPoly.zero(OM)
        for i in range(k + 1):
            coef = al1 ** i * al2 ** (k - i)
            rhs = rhs + pk_closed_form(W, k, i).scale(coef)
        assert lhs == rhs



class _EuclideanGcdCalled(Exception):
    pass


def test_diagonal_work_skips_the_euclidean_gcd(monkeypatch):
    """Power-of-t denominators take the Laurent normalization and
    same-denominator sums: with the univariate gcd and division patched to
    raise, diagonal integrands and C_k still complete and match their
    closed forms, while a denominator that is not a power of t still takes
    the gcd."""

    def refuse(*args):
        raise _EuclideanGcdCalled

    monkeypatch.setattr(ncalg, "_up_gcd", refuse)
    monkeypatch.setattr(ncalg, "_up_divmod", refuse)
    al1, al2 = var("al1"), var("al2")
    om = NcPoly.letter(OM, 0).scale(al1) + NcPoly.letter(OM, 1).scale(al2)
    for weights, omega, k in ((W, om, 6),
                              (WeightPair(Fraction(1, 3), Fraction(-2, 5)),
                               NcPoly.letter(OM, 0) - NcPoly.letter(OM, 1).scale(3), 8)):
        conn = Connection.diagonal((weights.w1, weights.w2))
        lhs = melnikov_integrand(conn, omega, k).scale(T ** (k - 1))
        a1, a2 = omega.coeff((0,)), omega.coeff((1,))
        rhs = NcPoly.zero(OM)
        for i in range(k + 1):
            coef = a1 ** i * a2 ** (k - i)
            rhs = rhs + pk_closed_form(weights, k, i).scale(coef)
        assert lhs == rhs
    assert ck(W, 7) == ck_closed_form(W, 7)
    conn = Connection(OM, T * T - 1, ((1, 0), (0, 2)))
    with pytest.raises(_EuclideanGcdCalled):
        melnikov_integrand(conn, NcPoly.letter(OM, 0), 2)


# ------------------------------------------------------------------- p_k

def test_pk_golden_k2():
    p = pk_closed_form(W, 2, 1)
    assert str(p) == "w2*om1 om2 + w1*om2 om1"


def test_pk_word_support():
    from math import comb
    for k in (2, 3, 4):
        for i in range(k + 1):
            p = pk_closed_form(W, k, i)
            words = [w for w, _ in p.items()]
            assert len(words) == comb(k, i)
            assert all(w.count(0) == i for w in words)


def test_pk_pure_word_coefficient():
    # all letters om2: coefficient is prod_{j=2..k} ((k-j+1) w2 - (k-j))
    p = pk_closed_form(W, 3, 0)
    ((word, c),) = list(p.items())
    assert word == (1, 1, 1)
    assert c == (W.w2 * 2 - 1) * W.w2


def test_pk_invalid_part():
    with pytest.raises(ValueError):
        pk_closed_form(W, 2, 3)
    with pytest.raises(ValueError):
        pk_closed_form(W, 2, -1)
    with pytest.raises(ValueError):
        pk_closed_form(W, 0, 0)


# ------------------------------------------------------------------- C_k

def test_lk_tree_shape():
    t = lk_tree(3)
    assert str(t) == "[[om1,om2],om2]"
    assert t.degree == 3


def test_ck_golden_values():
    assert scalar_str(ck(W, 2)) == "w2 - w1"
    got = ck(W, 3)
    # C_3 = (w2 - w1)(1 - w1)
    assert got == (W.w2 - W.w1) * (1 - W.w1)


def test_ck_matches_closed_form():
    for k in range(2, 7):
        assert ck(W, k) == ck_closed_form(W, k)


def test_ck_recursion():
    """C_k(w1, w2) = (w2 - w1) C_{k-1}(w1 + w2 - 1, w2)."""
    shifted = WeightPair(W.w1 + W.w2 - 1, W.w2)
    for k in range(3, 7):
        assert ck_closed_form(W, k) == (W.w2 - W.w1) * ck_closed_form(shifted, k - 1)


def test_ck_witness_nonzero():
    w = WeightPair(Fraction(1, 3), Fraction(1, 2))
    for k in range(2, 7):
        assert ck(w, k) != 0


def test_ck_vanishes_on_equal_weights():
    w = WeightPair(Fraction(2, 5), Fraction(2, 5))
    assert ck(w, 3) == 0


def test_ck_pairs_pk_against_bracket():
    for k in (2, 3, 4):
        direct = inner(pk_closed_form(W, k, 1), expand(lk_tree(k), OM))
        assert direct == ck(W, k)


# ------------------------------------------------------ order-5 vanishing

def test_example_m5_is_zero():
    assert example_ex_m5() == 0


def test_m5_subterm_antisymmetry():
    """The length-5 word has four equal letters; pairing through any table
    kills it because the graded pairing is alternating in equal columns."""
    from chenlie.chenint import PairingTable, pair_graded
    from chenlie.freegrp import GroupWord, commutator
    from chenlie.melnikov import EX_M5_FORMS, EX_M5_PATHS
    paths, forms = EX_M5_PATHS, EX_M5_FORMS
    assert len(paths.letters) == 2 and len(forms.letters) == 5
    table = PairingTable.symbolic(paths, forms)
    # the symbolic table carries 10 independent indeterminates
    names = {scalar_str(e) for row in table.entries for e in row}
    assert len(names) == 10
    a1 = GroupWord.generator(paths, 0)
    a2 = GroupWord.generator(paths, 1)
    gamma = commutator(commutator(commutator(a1, a2), a1),
                       commutator(a1, a2))
    assert pair_graded(table, gamma, (0, 1, 1, 1, 1)) == 0


# ------------------------------------------------- first-grading monodromy

def test_intersection_matrix_shape():
    assert len(INTERSECTION) == 4
    for i in range(4):
        assert INTERSECTION[i][i] == 0
    # delta_1, delta_3, delta_4 each meet delta_2 once, positively
    assert INTERSECTION[0][1] == 1
    assert INTERSECTION[2][1] == 1
    assert INTERSECTION[3][1] == 1
    assert INTERSECTION[1][0] == -1


def test_picard_lefschetz_fixes_own_cycle():
    for i in range(1, 5):
        assert picard_lefschetz(i, DELTA[i - 1]) == DELTA[i - 1]


def test_picard_lefschetz_paper_values():
    assert picard_lefschetz(1, DELTA[1]) == (1, 1, 0, 0)   # h1(d2) = d2 + d1
    assert picard_lefschetz(2, DELTA[0]) == (1, -1, 0, 0)  # h2(d1) = d1 - d2
    assert picard_lefschetz(2, DELTA[2]) == (0, -1, 1, 0)
    assert picard_lefschetz(2, DELTA[3]) == (0, -1, 0, 1)


def test_monodromy_fixes_alpha():
    for i in range(1, 5):
        for a in ALPHA:
            assert picard_lefschetz(i, a) == a


def test_picard_lefschetz_is_symplectic():
    """Each h_i preserves the intersection pairing."""
    def ip(u, v):
        return sum(u[r] * INTERSECTION[r][s] * v[s]
                   for r in range(4) for s in range(4))
    basis = DELTA
    for i in range(1, 5):
        for u in basis:
            for v in basis:
                assert ip(picard_lefschetz(i, u), picard_lefschetz(i, v)) \
                    == ip(u, v)


# ------------------------------------------------ second-grading monodromy

def test_wedge_antisymmetry():
    u, v = (1, 2, 0, -1), (0, 1, 1, 1)
    assert wedge(u, v) == vscale(wedge(v, u), -1)
    assert is_zero_vec(wedge(u, u))


def test_pl_grade2_is_wedge_of_pl(rng):
    for i in range(1, 5):
        for _ in range(5):
            u = tuple(rng.randint(-2, 2) for _ in range(4))
            v = tuple(rng.randint(-2, 2) for _ in range(4))
            lhs = pl_grade2(i, wedge(u, v))
            rhs = wedge(picard_lefschetz(i, u), picard_lefschetz(i, v))
            assert lhs == rhs


def test_pl_grade2_fixes_alpha_wedge():
    g = wedge(ALPHA[0], ALPHA[1])
    assert g == (0, 0, 0, 0, 0, 1)
    for i in range(1, 5):
        assert pl_grade2(i, g) == g


def _symbolic_g():
    m, a1, a2, b1, b2, n = (var(s) for s in ("m", "a1", "a2", "b1", "b2", "n"))
    return (m, a1, a2, b1, b2, n), (m, a1, a2, b1, b2, n)


def test_variation_identities_h1_h2():
    """(h1 - id) g = [d1, b] and (h2 - id) g = -[d2, a] for the general
    grade-2 element g with a = a1 A1 + a2 A2, b = b1 A1 + b2 A2."""
    g, (m, a1, a2, b1, b2, n) = _symbolic_g()
    assert vsub(pl_grade2(1, g), g) == (0, b1, b2, 0, 0, 0)
    assert vsub(pl_grade2(2, g), g) == (0, 0, 0, -a1, -a2, 0)


def test_variation_identities_h3_h4_vanishing_core():
    """With the [d1,d2] component zero, h3 and h4 move g by [d_i, b]."""
    _, (m, a1, a2, b1, b2, n) = _symbolic_g()
    g0 = (Fraction(0), a1, a2, b1, b2, n)
    b_delta = vadd(vscale(ALPHA[0], b1), vscale(ALPHA[1], b2))
    assert vsub(pl_grade2(3, g0), g0) == wedge(DELTA[2], b_delta)
    assert vsub(pl_grade2(4, g0), g0) == wedge(DELTA[3], b_delta)


def test_variation_identities_h3_h4_pure_core():
    """With a = b = 0 the variation is proportional to the core: the
    h3/h4 moves give m [d1, d3] and m [d1, d4], and their difference is
    m [d1, a2 - a1]."""
    _, (m, a1, a2, b1, b2, n) = _symbolic_g()
    g0 = (m, Fraction(0), Fraction(0), Fraction(0), Fraction(0), n)
    assert vsub(pl_grade2(3, g0), g0) == vscale(wedge(DELTA[0], DELTA[2]), m)
    assert vsub(pl_grade2(4, g0), g0) == vscale(wedge(DELTA[0], DELTA[3]), m)
    diff = vsub(pl_grade2(3, g0), pl_grade2(4, g0))
    assert diff == (0, -m, m, 0, 0, 0)
    alpha_diff = vsub(ALPHA[1], ALPHA[0])
    assert diff == vscale(wedge(DELTA[0], alpha_diff), m)


# --------------------------------------------------------------- operators

def test_operator_words_apply_right_to_left():
    g = wedge(DELTA[0], DELTA[1])
    word = concat_mul(op_h(1), op_h(2))  # h1 h2 acts as h1 after h2
    assert apply_operator(word, g) == pl_grade2(1, pl_grade2(2, g))
    assert apply_operator(op_id(), g) == g


def test_reduce_to_alpha_trivial_cases():
    g = (0, 0, 0, 0, 0, Fraction(7))
    op, k = reduce_to_alpha(g)
    assert op == op_id() and k == 7
    with pytest.raises(ValueError):
        reduce_to_alpha((0, 0, 0, 0, 0, 0))


def test_reduce_to_alpha_branches():
    """One witness per case branch; each certificate is replayed."""
    target = wedge(ALPHA[0], ALPHA[1])
    cases = [
        (1, 0, 0, 0, 2, 0),    # b != 0 with c22 != 0
        (1, 0, 0, 3, 0, 0),    # b != 0 with c22 = 0
        (0, 0, 5, 0, 0, 0),    # b = 0, a != 0, c12 != 0
        (2, 4, 0, 0, 0, 1),    # b = 0, a != 0, c12 = 0
        (3, 0, 0, 0, 0, 0),    # a = b = 0, core only
    ]
    for g in cases:
        g = tuple(Fraction(c) for c in g)
        op, k = reduce_to_alpha(g)
        assert k != 0
        assert apply_operator(op, g) == vscale(target, k)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduce_to_alpha_random_replay(r):
    g = tuple(Fraction(r.randint(-4, 4)) for _ in range(6))
    if is_zero_vec(g):
        return
    op, k = reduce_to_alpha(g)
    assert k != 0
    assert apply_operator(op, g) == vscale(wedge(ALPHA[0], ALPHA[1]), k)


def test_reduce_to_alpha_symbolic_weights():
    """The reduction also runs with symbolic entries as long as the case
    tests can decide nonvanishing."""
    m = var("m")
    op, k = reduce_to_alpha((m, 0, 0, 0, 0, 0))
    got = apply_operator(op, (m, Fraction(0), Fraction(0), Fraction(0),
                              Fraction(0), Fraction(0)))
    assert got == vscale(wedge(ALPHA[0], ALPHA[1]), k)


def test_monodromy_alphabet():
    assert MONODROMY_OPS.letters == ("h1", "h2", "h3", "h4")
    assert str(op_h(3)) == "h3"
    assert GRADE2_BASIS[0] == "[d1,d2]" and GRADE2_BASIS[5] == "[a1,a2]"
