"""Free Lie algebra: bracket expansion, Hall bases and Witt counts,
Ree's shuffle criterion, and the orthogonal Lie/shuffle decomposition."""

from fractions import Fraction
import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chenlie.chenint import canonical_model
from chenlie.liealg import (
    MAX_BLOCK,
    MAX_HALL_ELEMENTS,
    LieTree,
    _hall_blocks,
    _projection_data,
    decompose,
    expand,
    hall_basis,
    hall_rank,
    is_lie,
    witt_number,
)
from chenlie.ncalg import Alphabet, NcPoly, concat_mul, inner, shuffle
from chenlie.parser import parse_lie

from conftest import (
    SCALAR_KINDS,
    XY,
    XYZ,
    random_homogeneous,
    random_lie_element,
    random_lie_poly,
    random_lietree,
    random_scalar,
)
from oracles import fraction_rank, fraction_solve, is_lie_ree

WITT_M2 = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}


# ------------------------------------------------------------------ trees

def test_lietree_shapes():
    leaf = LieTree.leaf("x")
    assert leaf.is_leaf and leaf.degree == 1 and str(leaf) == "x"
    br = LieTree.bracket(leaf, LieTree.leaf("y"))
    assert br.degree == 2 and str(br) == "[x,y]"
    assert list(br.leaves()) == ["x", "y"]
    with pytest.raises(ValueError):
        LieTree(letter="x", left=leaf)
    with pytest.raises(ValueError):
        LieTree(left=leaf)


def test_expand_examples():
    xy = expand(parse_lie("[x,y]"), XY)
    assert str(xy) == "x y - y x"
    # [[x,y],x] = xyx - yx^2 - x^2y + xyx
    p = expand(parse_lie("[[x,y],x]"), XY)
    assert p.coeff((0, 1, 0)) == 2
    assert p.coeff((1, 0, 0)) == -1
    assert p.coeff((0, 0, 1)) == -1
    assert p.is_homogeneous() and p.max_degree() == 3


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_antisymmetry_and_jacobi(r, k):
    u = random_lietree(r, XY, k)
    v = random_lietree(r, XY, k)
    w = random_lietree(r, XY, 2)
    eu, ev, ew = (expand(t, XY) for t in (u, v, w))
    # antisymmetry
    assert (concat_mul(eu, ev) - concat_mul(ev, eu)) == \
        (concat_mul(ev, eu) - concat_mul(eu, ev)).scale(-1)
    # Jacobi: [[u,v],w] + [[v,w],u] + [[w,u],v] = 0
    def br(a, b):
        return concat_mul(a, b) - concat_mul(b, a)
    assert (br(br(eu, ev), ew) + br(br(ev, ew), eu)
            + br(br(ew, eu), ev)).is_zero()


# ------------------------------------------------------- Hall basis, Witt

def test_witt_numbers():
    for k, n in WITT_M2.items():
        assert witt_number(2, k) == n
    assert witt_number(3, 5) == 48
    assert witt_number(3, 1) == 3
    # Necklace-count sanity: sum over divisors recovers m^k
    for m in (2, 3):
        for k in (1, 2, 3, 4, 6):
            total = sum(d * witt_number(m, d)
                        for d in range(1, k + 1) if k % d == 0)
            assert total == m ** k


def test_hall_basis_counts_and_rank():
    for k, n in WITT_M2.items():
        basis = hall_basis(XY, k)
        assert len(basis.elements) == n
        assert hall_rank(XY, k) == n
    assert len(hall_basis(XYZ, 5).elements) == 48
    assert hall_rank(XYZ, 4) == witt_number(3, 4)


def test_hall_basis_degree_validation():
    with pytest.raises(ValueError):
        hall_basis(XY, 0)


def test_hall_expansions_homogeneous():
    for tree in hall_basis(XY, 4).elements:
        e = expand(tree, XY)
        assert e.is_homogeneous() and e.max_degree() == 4
        # every word in the expansion is an anagram of the tree's leaves
        leaves = sorted(XY.index(c) for c in tree.leaves())
        assert all(sorted(w) == leaves for w, _ in e.items())
        # coefficients are integers summing to zero (a commutator has
        # vanishing abelianization)
        assert sum(c for _, c in e.items()) == 0


# ----------------------------------------------------------- pairing values

def test_degree3_bracket_pairing():
    t1, t2 = parse_lie("[y,[x,z]]"), parse_lie("[z,[x,y]]")
    assert inner(expand(t1, XYZ), expand(t2, XYZ)) == 2


def test_degree5_bracket_pairings():
    pairs = [
        ("[y,[x,[x,[x,y]]]]", "[[x,y],[x,[x,y]]]", -28),
        ("[y,[y,[x,[x,y]]]]", "[[x,y],[y,[x,y]]]", -14),
    ]
    for left, right, value in pairs:
        got = inner(expand(parse_lie(left), XY), expand(parse_lie(right), XY))
        assert got == value


def test_lie_orthogonal_to_shuffles_deg34():
    """Every degree-3 and degree-4 bracket expansion pairs to zero with
    every shuffle of nonempty words."""
    for k in (3, 4):
        exps = hall_basis(XY, k).expansions()
        for r in range(1, k):
            for u in XY.words(r):
                pu = NcPoly.from_word(XY, u)
                for v in XY.words(k - r):
                    s = shuffle(pu, NcPoly.from_word(XY, v))
                    assert all(inner(e, s) == 0 for e in exps)


# ----------------------------------------------------------- Ree criterion

def test_is_lie_on_basis_and_shuffles():
    assert is_lie(NcPoly.zero(XY))
    assert is_lie(NcPoly.letter(XY, 0))
    assert not is_lie(NcPoly.one(XY))
    for k in (2, 3, 4):
        for tree in hall_basis(XY, k).elements:
            assert is_lie(expand(tree, XY))
    x, y = NcPoly.letter(XY, 0), NcPoly.letter(XY, 1)
    assert not is_lie(shuffle(x, y))
    assert not is_lie(concat_mul(x, y))
    # sums of homogeneous Lie parts of different degrees are still Lie
    assert is_lie(x + expand(parse_lie("[x,y]"), XY))


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_is_lie_random_combinations(r, k):
    p = random_lie_poly(r, XY, k)
    assert is_lie(p)
    u = random_homogeneous(r, XY, 1, n_terms=2)
    v = random_homogeneous(r, XY, k - 1, n_terms=2)
    s = shuffle(u, v)
    if not s.is_zero():
        assert not is_lie(s)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([XY, XYZ]),
       st.sampled_from(SCALAR_KINDS), st.booleans(), st.booleans())
def test_is_lie_matches_the_ree_sweep(r, ab, kind, stray, constant):
    """Hall combinations over one to three degrees up to 6, with or without
    a stray word in each degree and a constant term."""
    degrees = r.sample(range(1, 7), r.randint(1, 3))
    p = random_lie_element(r, ab, degrees, kind)
    if stray:
        for k in degrees:
            word = tuple(r.randrange(len(ab)) for _ in range(k))
            p = p + NcPoly.from_word(ab, word, random_scalar(r, kind))
    if constant:
        p = p + NcPoly.one(ab).scale(random_scalar(r, kind))
    assert is_lie(p) == is_lie_ree(p)
    if not stray and not constant:
        assert is_lie(p)


# ------------------------------------------------------------ decomposition

def test_decompose_xy():
    x, y = NcPoly.letter(XY, 0), NcPoly.letter(XY, 1)
    p = concat_mul(x, y)
    lie, shf = decompose(p)
    half = Fraction(1, 2)
    assert lie == (concat_mul(x, y) - concat_mul(y, x)).scale(half)
    assert shf == shuffle(x, y).scale(half)
    assert lie + shf == p


def test_decompose_edge_cases():
    z = NcPoly.zero(XY)
    assert decompose(z) == (z, z)
    one = NcPoly.one(XY)
    assert decompose(one) == (z, one)
    x = NcPoly.letter(XY, 0)
    assert decompose(x) == (x, z)
    with pytest.raises(ValueError):
        decompose(one + x)


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_decompose_properties(r, k):
    p = random_homogeneous(r, XY, k, n_terms=5)
    lie, shf = decompose(p)
    assert lie + shf == p
    assert is_lie(lie)
    # the shuffle part is orthogonal to the whole Lie slice
    for e in hall_basis(XY, k).expansions():
        assert inner(e, shf) == 0
    # idempotence
    assert decompose(lie) == (lie, NcPoly.zero(XY))
    assert decompose(shf) == (NcPoly.zero(XY), shf)


def test_projection_is_cached_per_multidegree_block():
    """Exact cache counts: one Gram block per multidegree, shared by every
    polynomial of that multidegree, and none for degree-1 parts."""
    _projection_data.cache_clear()
    p = NcPoly.from_word(XYZ, (0, 1, 2, 0, 1))  # x y z x y, multidegree (2, 2, 1)
    decompose(p)
    assert _projection_data.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert len(_hall_blocks(XYZ, 5)[(2, 2, 1)]) == 6
    decompose(NcPoly.from_word(XYZ, (2, 1, 1, 0, 0), 3))  # z y y x x
    assert _projection_data.cache_info()[:2] == (1, 1)

    _projection_data.cache_clear()
    assert is_lie(expand(hall_basis(XY, 8).elements[-1], XY))
    assert _projection_data.cache_info().misses == 1

    _projection_data.cache_clear()
    canonical_model(XYZ, 8)  # the log of exp(x) is x
    assert _projection_data.cache_info().misses == 0


def test_every_block_inverse_matches_the_fraction_oracle():
    """Every block over x,y to degree 10 and over x,y,z to degree 6: the
    integer Gram matrix inverted fraction-free equals the Fraction inverse
    of the Gram matrix of the Fraction pairing, entry by entry."""
    for ab, top in ((XY, 10), (XYZ, 6)):
        for k in range(2, top + 1):
            for md, elements in _hall_blocks(ab, k).items():
                assert len(elements) <= MAX_BLOCK
                exps, inv = _projection_data.__wrapped__(ab, md)
                n = len(exps)
                gram = [[inner(a, b) for b in exps] for a in exps]
                identity = [[int(i == j) for j in range(n)] for i in range(n)]
                assert inv == fraction_solve(gram, identity), md
                assert all(type(x) is Fraction for row in inv for x in row)


def test_the_benchmark_reads_both_private_caches():
    """bench/spans.py counts the projection and shuffle caches through
    their private names and leaves out, without an error, a name that is
    gone; both names must be there for it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    decompose(NcPoly.from_word(XY, (0, 1, 1)))
    shuffle(NcPoly.from_word(XY, (0, 1)), NcPoly.from_word(XY, (1,)))
    assert set(spans.private_counters()) == {
        "projection_hits", "projection_misses", "shuffle_cache_entries"}


def test_every_function_the_benchmark_traces_exists():
    """bench/spans.py wraps the functions of its LAYERS by name and skips,
    without an error, a name that is gone, so a renamed function would read
    0 calls.  Only chenint.path_series, which moved into the tests, is gone."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {f"{module}.{fn}" for module, fns in spans.LAYERS.values() for fn in fns
               if not callable(getattr(importlib.import_module(f"chenlie.{module}"),
                                       fn, None))}
    assert missing <= {"chenint.path_series"}


def test_lie_layer_size_limits():
    assert len(hall_basis(XY, 15).elements) == witt_number(2, 15)
    with pytest.raises(ValueError) as exc:
        hall_basis(XY, 16)  # 8800 elements up to degree 16
    assert "8800" in str(exc.value) and str(MAX_HALL_ELEMENTS) in str(exc.value)
    with pytest.raises(ValueError):  # one letter: 1 element, but 10^9 degrees
        hall_basis(Alphabet(("x",)), 10 ** 9)
    assert len(_hall_blocks(XY, 12)[(6, 6)]) == 75
    x6y6 = NcPoly.from_word(XY, (0,) * 6 + (1,) * 6)
    with pytest.raises(ValueError) as exc:
        decompose(x6y6)
    assert "75" in str(exc.value) and str(MAX_BLOCK) in str(exc.value)
    with pytest.raises(ValueError) as exc:  # the top degree is checked first
        is_lie(x6y6 + NcPoly.from_word(XY, (0,) * 39 + (1,)))
    assert "degree 40" in str(exc.value) and str(MAX_HALL_ELEMENTS) in str(exc.value)


def test_oversized_blocks_are_refused_before_any_gram_matrix():
    """Degree 12 over x,y, one word per multidegree: the blocks (5,7),
    (6,6) and (7,5) are over the limit, and the refusal comes before the
    accepted blocks sorted ahead of them are built."""
    p = sum((NcPoly.from_word(XY, (0,) * a + (1,) * (12 - a)) for a in range(1, 12)),
            NcPoly.zero(XY))
    before = _projection_data.cache_info().misses
    with pytest.raises(ValueError, match=r"multidegree \(5, 7\) has 66 Hall "
                       "elements, over the block limit of 45"):
        is_lie(p)
    assert _projection_data.cache_info().misses == before


def test_rank_identity_small():
    """dim L_k + dim(shuffle span) = m^k for the full window m <= 3, k <= 5
    is certified in the acceptance tests; spot-check m = 2, k = 3 exactly
    by building the shuffle span by hand."""
    k = 3
    rows = []
    for r in range(1, k):
        for u in XY.words(r):
            pu = NcPoly.from_word(XY, u)
            for v in XY.words(k - r):
                s = shuffle(pu, NcPoly.from_word(XY, v))
                rows.append([s.coeff(w) for w in XY.words(k)])
    assert witt_number(2, k) + fraction_rank(rows) == 2 ** k
