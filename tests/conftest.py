"""Shared helpers for the test suite: seeded random generators for
polynomials, Lie trees, and group words, plus the tree -> group-word
commutator realization used by the pairing tests."""

from fractions import Fraction
import random

import pytest

from chenlie.liealg import LieTree, expand, hall_basis
from chenlie.freegrp import GroupWord, commutator
from chenlie.ncalg import TVAR, Alphabet, NcPoly, var

XY = Alphabet(("x", "y"))
XYZ = Alphabet(("x", "y", "z"))


def random_fraction(rng: random.Random, span: int = 5) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_homogeneous(rng: random.Random, alphabet: Alphabet, k: int,
                       n_terms: int = 4) -> NcPoly:
    """Random homogeneous degree-k polynomial with small rational
    coefficients (may turn out zero)."""
    p = NcPoly.zero(alphabet)
    words = list(alphabet.words(k))
    for _ in range(n_terms):
        w = rng.choice(words)
        p = p + NcPoly.from_word(alphabet, w, random_fraction(rng))
    return p


def random_lietree(rng: random.Random, alphabet: Alphabet, k: int) -> LieTree:
    """Random bracket tree of degree k with leaves from the alphabet."""
    if k == 1:
        return LieTree.leaf(rng.choice(alphabet.letters))
    split = rng.randint(1, k - 1)
    return LieTree.bracket(
        random_lietree(rng, alphabet, split),
        random_lietree(rng, alphabet, k - split),
    )


def random_lie_poly(rng: random.Random, alphabet: Alphabet, k: int) -> NcPoly:
    """Random rational combination of degree-k Hall expansions."""
    p = NcPoly.zero(alphabet)
    for tree in hall_basis(alphabet, k).elements:
        p = p + expand(tree, alphabet).scale(random_fraction(rng))
    return p


SCALAR_KINDS = ("fraction", "mpoly", "ratfunc")


def random_scalar(rng: random.Random, kind: str):
    """A nonzero Fraction, MPoly in a and t, or RatFunc over t + 1."""
    f = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if kind == "fraction":
        return f
    p = var("a") * f + rng.choice([0, 1, var(TVAR)])
    if kind == "mpoly":
        return p
    return p / (var(TVAR) + 1)


def random_lie_element(rng: random.Random, alphabet: Alphabet, degrees,
                       kind: str = "fraction", per_degree: int = 3) -> NcPoly:
    """Sum over the given degrees of up to per_degree Hall expansions with
    random coefficients of the given kind."""
    p = NcPoly.zero(alphabet)
    for k in degrees:
        trees = hall_basis(alphabet, k).elements
        for tree in rng.sample(trees, min(per_degree, len(trees))):
            p = p + expand(tree, alphabet).scale(random_scalar(rng, kind))
    return p


def random_groupword(rng: random.Random, alphabet: Alphabet,
                     length: int = 6) -> GroupWord:
    entries = tuple(
        (rng.randrange(len(alphabet.letters)), rng.choice((1, -1)))
        for _ in range(length)
    )
    return GroupWord(alphabet, entries)


def tree_to_gw(tree: LieTree, alphabet: Alphabet) -> GroupWord:
    """Realize a bracket tree as an iterated group commutator:
    leaves become generators, brackets become (a, b) = a b a^-1 b^-1."""
    if tree.is_leaf:
        return GroupWord.generator(alphabet, alphabet.index(tree.letter))
    return commutator(tree_to_gw(tree.left, alphabet),
                      tree_to_gw(tree.right, alphabet))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260815)
