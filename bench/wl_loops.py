"""loops: Chen iterated integrals along commutator loops.

Each job draws a bracket tree (a fixed rotation of tree shapes per slot, with
seeded letters, redrawn until its expansion is nonzero and its commutator
loop does not shorten under free reduction; see refs.random_tree) and turns
it into the iterated group commutator, whose lcs degree is then the tree
degree d.  Then either
  * ``evaluate`` pairs the loop with every form word of length 1..d in the
    canonical model or a seeded non-canonical group-like model, plus one
    reversed loop (axiom A3) and one concatenated loop (axiom A2); or
  * ``lcs_degree`` and ``phi_inverse`` (bounded by d, so that the Magnus
    series stops at degree d, not at the default 8, whose cost swings with
    the letters) and ``pair_graded`` give the leading term for four degree-d
    words against a seeded rational pairing table.
Time goes to path_series / ts_mul / ts_inv / magnus on Fraction scalars.
"""

from __future__ import annotations

import random
from fractions import Fraction

from chenlie import chenint, freegrp
from chenlie.freegrp import GroupWord, gw_inv, gw_mul
from chenlie.ncalg import Alphabet, NcPoly

import refs
from jobs import Job

ALPHABETS = {2: Alphabet(("x", "y")), 3: Alphabet(("x", "y", "z"))}
# (letters, degree) slots of one round.  Evaluating every word along a
# degree-5 loop takes over a second, so evaluate stops at degree 4 to keep
# a round near two seconds.  (3, 4) leads twice, so that the median job of
# the 19 falls among jobs of like cost rather than in a gap between two.
EVAL_CANONICAL = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
EVAL_CROOKED = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
LEADING = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 4), (3, 5))
CROOKED_MODELS = 4
SHAPES = {(m, d): refs.live_shapes(m, d) for m in ALPHABETS for d in range(2, 6)}


def _fraction(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _lie_element(rng, m: int, k: int) -> dict:
    """A random rational combination of bracket expansions of degree k."""
    out: dict = {}
    for _ in range(3):
        tree = refs.label_shape(rng.choice(SHAPES[(m, k)]), rng, m)
        out = refs.padd(out, refs.expand_tree(tree), _fraction(rng))
    return out


def setup(seed: int):
    """Integral models: canonical ones, and per slot CROOKED_MODELS
    non-canonical group-like ones exp(linear part + random Lie terms), whose
    linear parts are kept as the reference pairing table.  Rounds rotate
    through the non-canonical models, so no single draw sets a run's cost."""
    rng = random.Random(f"loops-models-{seed}")
    canonical = {(m, d): chenint.canonical_model(ALPHABETS[m], d) for m, d in EVAL_CANONICAL}
    crooked = {}
    for m, d in EVAL_CROOKED:
        ab = ALPHABETS[m]
        models = []
        for _ in range(CROOKED_MODELS):
            table = [[_fraction(rng) for _ in range(m)] for _ in range(m)]
            series = []
            for i in range(m):
                gen = {(j,): table[i][j] for j in range(m)}
                for k in range(2, d + 1):
                    gen = refs.padd(gen, _lie_element(rng, m, k))
                series.append(chenint.ts_exp(chenint.TruncSeries(d, NcPoly(ab, gen))))
            models.append((chenint.IntegralModel(ab, ab, d, tuple(series)), table))
        crooked[(m, d)] = models
    return canonical, crooked


def _tree(rng, m: int, d: int, turn: int):
    shapes = SHAPES[(m, d)]
    return refs.random_tree(rng, shapes[turn % len(shapes)], m)


def _eval_job(kind, model, table, rng, m, d, turn):
    ab = ALPHABETS[m]
    tree, lead = _tree(rng, m, d, turn)
    loop = GroupWord(ab, refs.loop_entries(tree))
    words = [w for k in range(1, d + 1) for w in refs.words(m, k)]
    polys = [NcPoly.from_word(ab, w) for w in words]
    star = rng.choice(refs.words(m, d))
    letter = GroupWord.generator(ab, star[0])
    extra = ((gw_inv(loop), NcPoly.from_word(ab, star[::-1])),        # A3
             (gw_mul(loop, letter), NcPoly.from_word(ab, star)),        # A2
             (letter, NcPoly.from_word(ab, star)))

    def run():
        values = [chenint.evaluate(model, loop, p) for p in polys]
        return values, [chenint.evaluate(model, g, p) for g, p in extra]

    def check(out):
        values, (reverse, joined, single) = out
        got = dict(zip(words, values))
        for w, v in got.items():
            want = refs.leading_pairing(lead, table, w) if len(w) == d else 0
            assert v == want, (kind, tree, w, v, want)
        assert reverse == (-1) ** d * got[star], (kind, tree, "A3")
        # A2 with every word shorter than d vanishing along the loop
        assert joined == got[star] + single, (kind, tree, "A2")

    return Job(kind, run, check)


def _leading_job(rng, m, d, turn):
    ab = ALPHABETS[m]
    tree, lead = _tree(rng, m, d, turn)
    loop = GroupWord(ab, refs.loop_entries(tree))
    table = [[_fraction(rng) for _ in range(m)] for _ in range(m)]
    ptable = chenint.PairingTable(ab, ab, tuple(tuple(r) for r in table))
    words = [tuple(rng.randrange(m) for _ in range(d)) for _ in range(4)]

    def run():
        return (freegrp.lcs_degree(loop, d), freegrp.phi_inverse(loop, d),
                [chenint.pair_graded(ptable, loop, w) for w in words])

    def check(out):
        degree, phi, values = out
        assert degree == d, (tree, degree)
        assert dict(phi.items()) == lead, (tree, "phi_inverse")
        for w, v in zip(words, values):
            assert v == refs.leading_pairing(lead, table, w), (tree, w, v)

    return Job("leading", run, check)


def rounds(state, seed: int):
    canonical, crooked = state
    identity = {m: [[Fraction(int(i == j)) for j in range(m)] for i in range(m)] for m in ALPHABETS}
    rng = random.Random(f"loops-{seed}")
    turn = 0
    while True:
        jobs = [_eval_job("eval_canonical", canonical[(m, d)], identity[m], rng, m, d, turn)
                for m, d in EVAL_CANONICAL]
        jobs += [_eval_job("eval_crooked", *crooked[(m, d)][turn % CROOKED_MODELS], rng, m, d, turn)
                 for m, d in EVAL_CROOKED]
        jobs += [_leading_job(rng, m, d, turn) for m, d in LEADING]
        yield jobs
        turn += 1
