"""Acceptance gate: thirteen criteria covering the full stack, one test
(and one printed pass line) per criterion.  All arithmetic is exact; every
randomized sweep is seeded and replayable."""

from fractions import Fraction
from math import factorial
import json
import random
import subprocess
import sys

from chenlie._linalg import frac_rank
from chenlie.chenint import (
    IntegralModel,
    PairingTable,
    TruncSeries,
    canonical_model,
    evaluate,
    is_grouplike,
    pair_graded,
    ts_exp,
)
from chenlie.freegrp import GroupWord, commutator, gw_mul, lcs_degree, phi_inverse
from chenlie.liealg import decompose, expand, hall_basis, hall_rank, is_lie, witt_number
from chenlie.melnikov import (
    ALPHA,
    Connection,
    DELTA,
    EX_M5_FORMS,
    EX_M5_PATHS,
    WeightPair,
    apply_operator,
    ck,
    ck_closed_form,
    example_ex_m5,
    melnikov_integrand,
    pk_closed_form,
    pl_grade2,
    picard_lefschetz,
    reduce_to_alpha,
    wedge,
)
from chenlie.ncalg import (
    Alphabet,
    NcPoly,
    TVAR,
    inner,
    scalar_str,
    shuffle,
    shuffle_words,
    var,
)
from chenlie.parser import parse_lie

from conftest import (
    XY,
    XYZ,
    random_homogeneous,
    random_groupword,
    random_lie_poly,
    random_lietree,
    tree_to_gw,
)
from oracles import modp_rank


def _pass(n: int, text: str):
    print(f"criterion {n:02d} PASS - {text}")


# --------------------------------------------------------------------------

def test_criterion_01_bracket_pairing_values():
    cases = [
        ("[y,[x,z]]", "[z,[x,y]]", XYZ, 2),
        ("[y,[x,[x,[x,y]]]]", "[[x,y],[x,[x,y]]]", XY, -28),
        ("[y,[y,[x,[x,y]]]]", "[[x,y],[y,[x,y]]]", XY, -14),
    ]
    for left, right, ab, value in cases:
        got = inner(expand(parse_lie(left), ab), expand(parse_lie(right), ab))
        assert got == value, (left, right, got)
    _pass(1, "bracket pairings evaluate to 2, -28, -14 exactly")


def test_criterion_02_hall_orthogonality_deg34():
    for k in (3, 4):
        exps = hall_basis(XY, k).expansions()
        for i in range(len(exps)):
            for j in range(i + 1, len(exps)):
                assert inner(exps[i], exps[j]) == 0, (k, i, j)
    _pass(2, "distinct degree-3/4 Hall expansions are pairwise orthogonal")


def test_criterion_03_direct_sum_decomposition():
    rng = random.Random(303)
    alphas = {2: XY, 3: XYZ}
    checked = 0
    for m, ab in alphas.items():
        for k in range(2, 6):
            dim_l = hall_rank(ab, k)
            assert dim_l == witt_number(m, k), (m, k)
            # shuffle-span dimension: GF(p) rank is a lower bound for the
            # rank over Q, and Ree orthogonality (criterion 4) caps it at
            # m^k - dim L, so equality of the two certifies the dimension.
            words = list(ab.words(k))
            pos = {w: i for i, w in enumerate(words)}
            rows = []
            for r in range(1, k):
                for u in ab.words(r):
                    for v in ab.words(k - r):
                        row = [0] * len(words)
                        for w, mult in shuffle_words(u, v).items():
                            row[pos[w]] += mult
                        rows.append(row)
            dim_s = modp_rank(rows)
            assert dim_l + dim_s == m ** k, (m, k, dim_l, dim_s)
    # 100 random homogeneous polynomials across the whole window
    exps_cache = {}
    for trial in range(100):
        m, ab = rng.choice(list(alphas.items()))
        k = rng.randint(2, 5)
        p = random_homogeneous(rng, ab, k, n_terms=5)
        if p.is_zero():
            continue
        lie, shf = decompose(p)
        assert lie + shf == p          # exact reassembly
        exps = exps_cache.setdefault((m, k), hall_basis(ab, k).expansions())
        assert all(inner(e, shf) == 0 for e in exps)  # zero residual
        assert is_lie(lie)
        # uniqueness: projecting again moves nothing
        assert decompose(lie) == (lie, NcPoly.zero(ab))
        assert decompose(shf) == (NcPoly.zero(ab), shf)
        checked += 1
    assert checked >= 90
    _pass(3, f"Lie (+) shuffle split certified for m<=3, k<=5; "
             f"{checked} random decompositions exact")


def test_criterion_04_ree_criterion_window():
    for ab in (XY, XYZ):
        for k in range(1, 6):
            for tree in hall_basis(ab, k).elements:
                assert is_lie(expand(tree, ab)), str(tree)
        for k in range(2, 6):
            for r in range(1, k):
                for u in ab.words(r):
                    pu = NcPoly.from_word(ab, u)
                    for v in ab.words(k - r):
                        s = shuffle(pu, NcPoly.from_word(ab, v))
                        assert not s.is_zero()
                        assert not is_lie(s), (u, v)
    _pass(4, "Ree criterion separates Hall expansions from all pure "
             "shuffles, m<=3, k<=5")


def test_criterion_05_integral_axioms():
    rng = random.Random(505)
    m6 = canonical_model(XY, 6)
    a = GroupWord.generator(XY, 0)
    for n in range(7):
        got = evaluate(m6, a, NcPoly.from_word(XY, (0,) * n))
        assert got == Fraction(1, factorial(n)), n
    assert evaluate(m6, a, NcPoly.from_word(XY, (0,) * 6)) == Fraction(1, 720)

    m5 = canonical_model(XY, 5)
    idw = GroupWord.identity(XY)
    for trial in range(8):
        alpha = random_groupword(rng, XY, 5)
        beta = random_groupword(rng, XY, 5)
        word = tuple(rng.randrange(2) for _ in range(rng.randint(1, 5)))
        poly = NcPoly.from_word(XY, word)
        # A1: the unit form integrates to 1, constant paths kill words
        assert evaluate(m5, alpha, NcPoly.one(XY)) == 1
        assert evaluate(m5, idw, poly) == 0
        # A2: concatenation is a prefix/suffix convolution
        conv = Fraction(0)
        for s in range(len(word) + 1):
            conv = conv + (evaluate(m5, alpha, NcPoly.from_word(XY, word[:s]))
                           * evaluate(m5, beta, NcPoly.from_word(XY, word[s:])))
        assert evaluate(m5, gw_mul(alpha, beta), poly) == conv
        # A3: path reversal reverses the word with sign (-1)^r
        from chenlie.freegrp import gw_inv
        assert evaluate(m5, gw_inv(alpha), poly) == \
            evaluate(m5, alpha, NcPoly.from_word(XY, word[::-1])) * (-1) ** len(word)
        # A4: products of integrals satisfy the shuffle relations
        r = rng.randint(1, 4)
        u = tuple(rng.randrange(2) for _ in range(r))
        v = tuple(rng.randrange(2) for _ in range(rng.randint(1, 5 - r)))
        pu, pv = NcPoly.from_word(XY, u), NcPoly.from_word(XY, v)
        lhs = evaluate(m5, alpha, pu) * evaluate(m5, alpha, pv)
        assert lhs == evaluate(m5, alpha, shuffle(pu, pv))
    _pass(5, "axioms A1-A4 hold on randomized inputs; canonical values "
             "1/n! through 1/720 exact")


def test_criterion_06_leading_term_pairing():
    rng = random.Random(606)
    models = {k: canonical_model(XY, k) for k in (2, 3, 4)}
    done = 0
    while done < 50:
        k = rng.randint(2, 4)
        tree = random_lietree(rng, XY, k)
        e = expand(tree, XY)
        if e.is_zero():
            continue
        delta = tree_to_gw(tree, XY)
        assert lcs_degree(delta) == k
        assert phi_inverse(delta) == e
        model = models[k]
        for w in XY.words(k):
            word_poly = NcPoly.from_word(XY, w)
            assert evaluate(model, delta, word_poly) == inner(word_poly, e)
        done += 1
    _pass(6, "50 nested commutators: canonical integral equals pairing "
             "with the leading Lie element on all matching words")


def test_criterion_07_vanishing_below_lcs_degree():
    rng = random.Random(707)
    canonical = canonical_model(XY, 5)
    # a second, non-canonical group-like model
    series = []
    for i in range(2):
        p = NcPoly.zero(XY)
        for k in range(1, 5):
            p = p + random_lie_poly(rng, XY, k)
        series.append(ts_exp(TruncSeries(5, p)))
    crooked = IntegralModel(XY, XY, 5, tuple(series))
    assert all(is_grouplike(s) for s in crooked.series)

    done = 0
    while done < 25:
        k = rng.randint(2, 5)
        tree = random_lietree(rng, XY, k)
        delta = tree_to_gw(tree, XY)
        d = lcs_degree(delta)
        if d is None:
            continue
        for model in (canonical, crooked):
            for j in range(1, d):
                for w in XY.words(j):
                    assert evaluate(model, delta,
                                    NcPoly.from_word(XY, w)) == 0
        done += 1
    _pass(7, "25 commutator loops: every integral of a word shorter than "
             "the lcs degree vanishes in two models")


def test_criterion_08_pairing_matrix_nonsingular():
    table = PairingTable.identity(XY)
    for k in range(1, 5):
        basis = hall_basis(XY, k)
        exps = basis.expansions()
        gws = [tree_to_gw(t, XY) for t in basis.elements]
        mat = []
        for d in gws:
            row = []
            for e in exps:
                val = Fraction(0)
                for w, c in e.items():
                    val = val + c * pair_graded(table, d, w)
                row.append(val)
            mat.append(row)
        n = len(exps)
        assert frac_rank(mat) == n, (k, mat)
    _pass(8, "Hall commutator loops against Hall expansions give "
             "nonsingular pairing matrices, m=2, k<=4")


def test_criterion_09_integrand_identity():
    W = WeightPair.symbolic()
    al1, al2 = var("al1"), var("al2")
    conn = Connection.diagonal((W.w1, W.w2))
    om = (NcPoly.letter(conn.forms, 0).scale(al1)
          + NcPoly.letter(conn.forms, 1).scale(al2))
    t = var(TVAR)
    for k in range(2, 7):
        lhs = melnikov_integrand(conn, om, k).scale(t ** (k - 1))
        rhs = NcPoly.zero(conn.forms)
        for i in range(k + 1):
            coef = al1 ** i * al2 ** (k - i)
            rhs = rhs + pk_closed_form(W, k, i).scale(coef)
        assert lhs == rhs, k
    _pass(9, "t^(k-1) x nested integrand matches the weighted word sums "
             "as 5-indeterminate identities, k=2..6")


def test_criterion_10_ck_closed_form_and_recursion():
    W = WeightPair.symbolic()
    assert scalar_str(ck(W, 2)) == "w2 - w1"
    for k in range(2, 7):
        assert ck(W, k) == ck_closed_form(W, k), k
    shifted = WeightPair(W.w1 + W.w2 - 1, W.w2)
    for k in range(3, 7):
        assert ck_closed_form(W, k) == (W.w2 - W.w1) * ck_closed_form(shifted, k - 1), k
    for w1, w2 in ((Fraction(1, 3), Fraction(1, 2)),
                   (Fraction(1, 4), Fraction(2, 3)),
                   (Fraction(-1, 2), Fraction(1, 5))):
        assert w1 != w2 and w1 < 1
        witness = WeightPair(w1, w2)
        for k in range(2, 7):
            assert ck(witness, k) != 0, (w1, w2, k)
    _pass(10, "C_k closed form and recursion verified symbolically k=2..6; "
              "nonzero at three rational witnesses")


def test_criterion_11_order5_vanishing():
    table = PairingTable.symbolic(EX_M5_PATHS, EX_M5_FORMS)
    names = {scalar_str(e) for row in table.entries for e in row}
    assert len(names) == 10          # fully symbolic ambient ring
    value = example_ex_m5()
    assert value == 0 and isinstance(value, Fraction)
    _pass(11, "the order-5 commutator integral collapses to the zero "
              "polynomial over all 10 table indeterminates")


def test_criterion_12_monodromy_reduction():
    assert picard_lefschetz(1, DELTA[1]) == (1, 1, 0, 0)
    assert picard_lefschetz(2, DELTA[0]) == (1, -1, 0, 0)

    def vsub(u, v):
        return tuple(x - y for x, y in zip(u, v))

    def vscale(u, c):
        return tuple(x * c for x in u)

    def vadd(u, v):
        return tuple(x + y for x, y in zip(u, v))

    m, a1, a2, b1, b2, n = (var(s) for s in ("m", "a1", "a2", "b1", "b2", "n"))
    g = (m, a1, a2, b1, b2, n)
    # variation of the general element under the first two twists
    assert vsub(pl_grade2(1, g), g) == (0, b1, b2, 0, 0, 0)
    assert vsub(pl_grade2(2, g), g) == (0, 0, 0, -a1, -a2, 0)
    # with the core absent, the outer twists move g by [d_i, b]
    g0 = (Fraction(0), a1, a2, b1, b2, n)
    b_vec = vadd(vscale(ALPHA[0], b1), vscale(ALPHA[1], b2))
    assert vsub(pl_grade2(3, g0), g0) == wedge(DELTA[2], b_vec)
    assert vsub(pl_grade2(4, g0), g0) == wedge(DELTA[3], b_vec)
    # with only the core, the moves are m [d1, d_i] and their difference
    # is m [d1, a2 - a1]
    gc = (m, Fraction(0), Fraction(0), Fraction(0), Fraction(0), n)
    assert vsub(pl_grade2(3, gc), gc) == vscale(wedge(DELTA[0], DELTA[2]), m)
    assert vsub(pl_grade2(4, gc), gc) == vscale(wedge(DELTA[0], DELTA[3]), m)
    assert vsub(pl_grade2(3, gc), pl_grade2(4, gc)) == \
        vscale(wedge(DELTA[0], vsub(ALPHA[1], ALPHA[0])), m)

    rng = random.Random(1212)
    target = wedge(ALPHA[0], ALPHA[1])
    done = 0
    while done < 200:
        g = tuple(Fraction(rng.randint(-5, 5)) for _ in range(6))
        if all(c == 0 for c in g):
            continue
        op, k = reduce_to_alpha(g)
        assert k != 0
        assert apply_operator(op, g) == vscale(target, k)
        done += 1
    _pass(12, "monodromy values, the six variation identities, and 200 "
              "random reductions to [a1,a2] all replay exactly")


def test_criterion_13_cli_golden_bytes():
    goldens = [
        (["--json", "pair", "[y,[x,z]]", "[z,[x,y]]"],
         b'{"command": "pair", "schema": 1, "value": "2"}\n'),
        (["--json", "ck", "-k", "2"],
         b'{"command": "ck", "k": 2, "schema": 1, "value": "w2 - w1"}\n'),
        (["--json", "m5check"],
         b'{"command": "m5check", "identity_holds": true, "schema": 1, '
         b'"value": "0"}\n'),
    ]
    for argv, expected in goldens:
        proc = subprocess.run([sys.executable, "-m", "chenlie.cli"] + argv,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected, (argv, proc.stdout)
        json.loads(proc.stdout)      # well-formed single-line JSON
    _pass(13, "the three JSON subcommand goldens are byte-stable "
              "end to end")
