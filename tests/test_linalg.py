"""Exact linear algebra: the GF(p) rank against the rank over Q, and the
package's import footprint."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import chenlie
from chenlie._linalg import frac_rank

from oracles import modp_rank


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
