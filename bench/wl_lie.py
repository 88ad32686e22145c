"""lie: the Lie/shuffle layer.

One job per (alphabet, degree) slot, x,y up to degree 8 and x,y,z up to
degree 5: ``decompose`` of a random homogeneous polynomial, ``is_lie`` on its
Lie part (a full sweep) and on the shuffle of two words (an early exit with
false), and ``hall_basis`` with ``expand`` of three of its elements.  Set-up
runs one ``decompose`` per slot, so the cold Gram inversion lands in setup_s
and the jobs see the warm projection.
"""

from __future__ import annotations

import random
from fractions import Fraction

from chenlie import liealg, ncalg
from chenlie.ncalg import Alphabet, NcPoly

import refs
from jobs import Job

ALPHABETS = {2: Alphabet(("x", "y")), 3: Alphabet(("x", "y", "z"))}
SLOTS = tuple((2, k) for k in range(2, 9)) + tuple((3, k) for k in range(2, 6))
TERMS = 6


def setup(seed: int):
    for m, k in SLOTS:
        liealg.decompose(NcPoly.from_word(ALPHABETS[m], (0,) * (k - 1) + (1,)))


def _tree_of(node, ab):
    if node.is_leaf:
        return ab.index(node.letter)
    return (_tree_of(node.left, ab), _tree_of(node.right, ab))


def _job(rng, m: int, k: int):
    ab = ALPHABETS[m]
    poly: dict = {}
    while not poly:
        for _ in range(TERMS):
            w = tuple(rng.randrange(m) for _ in range(k))
            poly = refs.padd(poly, {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    p = NcPoly(ab, poly)
    split = rng.randint(1, k - 1)
    u = NcPoly.from_word(ab, tuple(rng.randrange(m) for _ in range(split)))
    v = NcPoly.from_word(ab, tuple(rng.randrange(m) for _ in range(k - split)))
    picks = [rng.randrange(refs.witt(m, k)) for _ in range(3)]

    def run():
        lie, shf = liealg.decompose(p)
        s = ncalg.shuffle(u, v)
        basis = liealg.hall_basis(ab, k)
        exps = [liealg.expand(basis.elements[i], ab) for i in picks]
        return lie, shf, liealg.is_lie(lie), s, liealg.is_lie(s), basis, exps

    def check(out):
        lie, shf, lie_ok, s, s_lie, basis, exps = out
        lie_d, shf_d = dict(lie.items()), dict(shf.items())
        assert refs.padd(lie_d, shf_d) == poly, (m, k, "lie + shuffle != p")
        assert refs.is_lie_dsw(lie_d), (m, k, "Lie part fails Dynkin-Specht-Wever")
        assert refs.orthogonal_to_lie(shf_d, m, k), (m, k, "shuffle part not orthogonal")
        assert lie_ok is True, (m, k, "is_lie(Lie part)")
        (uw,), (vw,) = u.terms, v.terms
        assert dict(s.items()) == refs.pshuffle({uw: 1}, {vw: 1}), (uw, vw)
        assert s_lie is False, (uw, vw, "is_lie(shuffle)")
        assert len(basis.elements) == refs.witt(m, k), (m, k, "Hall basis size")
        for i, e in zip(picks, exps):
            assert dict(e.items()) == refs.expand_tree(_tree_of(basis.elements[i], ab)), (m, k, i)

    return Job(f"lie_{m}x{k}", run, check)


def rounds(state, seed: int):
    rng = random.Random(f"lie-{seed}")
    while True:
        yield [_job(rng, m, k) for m, k in SLOTS]
