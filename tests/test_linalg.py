"""Exact linear algebra: the fraction-free elimination against the Fraction
Gauss-Jordan oracle, the GF(p) rank against the rank over Q, and the
package's import footprint."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import chenlie
from chenlie._linalg import frac_rank, frac_solve

from oracles import fraction_rank, fraction_solve, modp_rank

ENTRIES = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6))


@st.composite
def rational_matrices(draw, square=False):
    """1-7 rows and columns of small rationals, ints and Fractions, some
    negative.  Half are products of a thin left and a wide right factor,
    so their rank is at most the width; some rows and columns are zeroed,
    and a zero top-left entry makes the first pivot a row swap."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 7))
    cells = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    if draw(st.booleans()):
        width = draw(st.integers(0, min(nrows, ncols)))
        left = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(cells, min_size=width, max_size=width))
        mat = [[sum((row[k] * right[k][j] for k in range(width)), Fraction(0))
                for j in range(ncols)] for row in left]
    else:
        mat = draw(st.lists(cells, min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        mat[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in mat:
            row[j] = 0
    if draw(st.booleans()):
        mat[0][0] = 0
    return mat


def outcome(solve, a, b):
    try:
        return solve(a, b)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_frac_rank_matches_the_fraction_oracle(mat):
    assert frac_rank(mat) == fraction_rank(mat)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frac_solve_matches_the_fraction_oracle(data):
    """The inverse and one more right-hand side, or the same refusal."""
    a = data.draw(rational_matrices(square=True))
    n = len(a)
    rhs = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    b = [[int(i == j) for j in range(n)] + [c] for i, c in enumerate(rhs)]
    got = outcome(frac_solve, a, b)
    assert got == outcome(fraction_solve, a, b)
    if got != "singular system":
        assert all(type(x) is Fraction for row in got for x in row)


def test_frac_solve_and_rank_edge_cases():
    assert frac_rank([]) == 0 and frac_rank([[0, 0]]) == 0
    assert frac_solve([], []) == []
    assert frac_solve([[0, 2], [3, 0]], [[1], [1]]) == [[Fraction(1, 3)], [Fraction(1, 2)]]
    with pytest.raises(ValueError, match="^singular system$"):
        frac_solve([[1, 2], [Fraction(1, 2), 1]], [[1, 0], [0, 1]])


def test_modp_rank_matches_frac_rank_on_small_integer_matrices():
    """With at most 6 columns and entries in [-9, 9], every minor is at
    most 6^3 * 9^6 < 2^31 - 1 in absolute value (Hadamard), so no nonzero
    minor vanishes mod p and the two ranks agree."""
    rng = random.Random(20081)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 6)
        spread = rng.choice([1, 2, 9])
        rows = [[rng.randint(-spread, spread) for _ in range(ncols)]
                for _ in range(nrows)]
        if rows and rng.random() < 0.3:  # force dependent rows
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x - y for x, y in zip(a, b)])
        assert modp_rank(rows) == frac_rank(rows), rows


def test_modp_rank_reads_fractions_and_edge_cases():
    assert modp_rank([]) == 0
    assert modp_rank([[0, 0], [0, 0]]) == 0
    assert modp_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert modp_rank([[Fraction(1, 3), 0], [0, Fraction(-2, 7)]]) == 2
    # a nonzero entry that vanishes mod p drops out
    assert modp_rank([[2**31 - 1, 0]]) == 0


def test_import_loads_no_numpy():
    """A fresh interpreter imports chenlie from the same sources as this
    test run and must not load numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chenlie.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, chenlie; assert 'numpy' not in sys.modules, 'numpy loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
