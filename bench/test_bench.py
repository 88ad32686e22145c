"""Tests of the benchmark's own reference computations and of its runner.

    python3 -m pytest bench/test_bench.py

The references in refs.py are what every benchmark job is checked against,
so they are tested here against classical values and identities, and (where
sympy is installed) against symbolic computation.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

import refs
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
X, Y, Z = 0, 1, 2


def _rng():
    return random.Random(20081)


def test_shuffle_counts_and_example():
    for u, v in (((0,), (1,)), ((0, 1), (1, 0, 1)), ((0, 0, 0), (0, 0))):
        assert sum(refs.shuffle_words(u, v).values()) == comb(len(u) + len(v), len(u))
    assert refs.shuffle_words((X, Y), (Z,)) == {(X, Y, Z): 1, (X, Z, Y): 1, (Z, X, Y): 1}
    assert refs.shuffle_words((X,), (X,)) == {(X, X): 2}


def test_witt_numbers():
    assert [refs.witt(2, k) for k in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [refs.witt(3, k) for k in range(1, 6)] == [3, 3, 8, 18, 48]
    assert [refs.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_classical_bracket_pairings():
    cases = (
        ((Y, (X, Z)), (Z, (X, Y)), 2),
        ((Y, (X, (X, (X, Y)))), ((X, Y), (X, (X, Y))), -28),
        ((Y, (Y, (X, (X, Y)))), ((X, Y), (Y, (X, Y))), -14),
    )
    for a, b, value in cases:
        assert refs.pair(refs.expand_tree(a), refs.expand_tree(b)) == value


def test_dynkin_specht_wever_separates_lie_from_shuffles():
    rng = _rng()
    for m in (2, 3):
        for k in range(2, 6):
            for shape in refs.live_shapes(m, k):
                tree, lead = refs.random_tree(rng, shape, m)
                assert refs.is_lie_dsw(lead)
                assert refs.orthogonal_to_lie(
                    refs.pshuffle({(0,) * (k - 1): 1}, {(1,): 1}), m, k)
            u = tuple(rng.randrange(m) for _ in range(k - 1))
            assert not refs.is_lie_dsw(refs.pshuffle({u: 1}, {(1,): 1}))


def test_leading_term_and_vanishing_below_lcs_degree():
    """The Magnus image of a commutator loop starts with the expansion of its
    tree: nothing below the tree degree, exactly the expansion at it."""
    rng = _rng()
    for m in (2, 3):
        for d in (2, 3, 4):
            for shape in refs.live_shapes(m, d):
                tree, lead = refs.random_tree(rng, shape, m)
                series = refs.magnus(refs.loop_entries(tree), d)
                assert {w: c for w, c in series.items() if 0 < len(w) < d} == {}
                assert {w: c for w, c in series.items() if len(w) == d} == lead
                identity = [[int(i == j) for j in range(m)] for i in range(m)]
                for w in refs.words(m, d):
                    assert refs.leading_pairing(lead, identity, w) == lead.get(w, 0)


def test_axioms_a2_a3_on_magnus_series():
    rng = _rng()
    n = 4
    for _ in range(10):
        a = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(5))
        b = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(4))
        sa, sb = refs.magnus(a, n), refs.magnus(b, n)
        joined = refs.magnus(a + b, n)
        inverse = refs.magnus(tuple((i, -e) for i, e in reversed(a)), n)
        for w in (w for k in range(n + 1) for w in refs.words(2, k)):
            conv = sum(sa.get(w[:s], 0) * sb.get(w[s:], 0) for s in range(len(w) + 1))
            assert joined.get(w, 0) == conv                                   # A2
            assert inverse.get(w, 0) == (-1) ** len(w) * sa.get(w[::-1], 0)   # A3


def test_ck_closed_form_pairing_and_shift_recursion():
    rng = _rng()
    for _ in range(20):
        w1 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        w2 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for k in range(2, 8):
            assert refs.ck_closed(w1, w2, k) == refs.ck_pairing(w1, w2, k)
        for k in range(3, 8):
            assert refs.ck_closed(w1, w2, k) == (w2 - w1) * refs.ck_closed(w1 + w2 - 1, w2, k - 1)
    for w1, w2 in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 4), Fraction(2, 3))):
        assert all(refs.ck_closed(w1, w2, k) != 0 for k in range(2, 7))


def test_jet_integrand_matches_pk_formula_on_diagonal_connections():
    rng = _rng()
    for k in range(1, 7):
        w = (Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 4))
        om = (Fraction(2, 3), Fraction(-5, 7))
        t0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        got = refs.integrand_at((0, 1), [[w[0], 0], [0, w[1]]], om, k, t0)
        want = {}
        for word in refs.words(2, k):
            c = refs.pk_coeff(word, w) / t0 ** (k - 1)
            for i in word:
                c *= om[i]
            if c:
                want[word] = c
        assert got == want, k


def test_jet_integrand_matches_sympy_on_a_full_matrix():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    delta = t ** 2 - 1
    mat = [[Fraction(1, 2), Fraction(1)], [Fraction(-1, 3), Fraction(2)]]
    om = (Fraction(3), Fraction(-2))
    r = {(i,): sympy.Rational(om[i]) for i in range(2)}
    for _ in range(3):
        d: dict = {}
        for w, c in r.items():
            d[w] = d.get(w, 0) + sympy.diff(c, t)
            for pos, letter in enumerate(w):
                for j in range(2):
                    w2 = w[:pos] + (j,) + w[pos + 1:]
                    d[w2] = d.get(w2, 0) + c * sympy.Rational(mat[letter][j]) / delta
        r = {(i,) + w: sympy.Rational(om[i]) * c for i in range(2) for w, c in d.items()}
    t0 = Fraction(5, 3)
    got = refs.integrand_at((-1, 0, 1), mat, om, 4, t0)
    for w, c in r.items():
        value = sympy.Rational(c.subs(t, sympy.Rational(5, 3)))
        assert got.get(w, 0) == Fraction(int(value.p), int(value.q)), w


def test_picard_lefschetz_matrices():
    # h_1 sends delta_2 to delta_1 + delta_2 and fixes delta_1
    assert refs._pl_delta(1, (0, 1, 0, 0)) == (1, 1, 0, 0)
    assert refs._pl_delta(2, (1, 0, 0, 0)) == (1, -1, 0, 0)
    a1a2 = (0, 0, 0, 0, 0, 1)
    for mat in refs.PL_GRADE2:
        assert mat[5] == a1a2                      # [a1, a2] is fixed by every twist
    # a replay: (h3 - h1)(h2 - 1) applied to [d1, a2] gives a multiple of [a1, a2]
    op = refs.padd(refs.pconcat({(2,): 1, (0,): -1}, {(1,): 1, (): -1}), {})
    assert refs.replay_operator(op, (0, 0, 1, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)


def test_order5_loop_pairs_to_zero_at_random_tables():
    """The degree-5 loop of example_ex_m5 pairs to zero with om0 om1^4 for
    every table of base integrals; sampled at random rational tables."""
    rng = _rng()
    tree = (((0, 1), 0), (0, 1))
    lead = refs.expand_tree(tree)
    for _ in range(5):
        table = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(2)]
        assert refs.leading_pairing(lead, table, (0, 1, 1, 1, 1)) == 0


def test_readers():
    xy = ("x", "y")
    assert refs.read_fraction_poly("x y/2 - y x/2", xy) == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    assert refs.read_fraction_poly("1 + x y - 3*y^2 x/4", xy) == {
        (): 1, (0, 1): 1, (1, 1, 0): Fraction(-3, 4)}
    assert refs.read_fraction_poly("0", xy) == {}
    assert refs.read_fraction_poly("-7/54", xy) == {(): Fraction(-7, 54)}
    text = "((-al1^3*w1 + 2*al1^3*w1^2)/t^2)*om1^3 - al1*w2*om1 om2"
    env = {"al1": 2, "w1": Fraction(1, 3), "w2": 5, "t": 3}
    got = {w: refs.eval_scalar(c, env) for w, c in refs.read_poly(text, ("om1", "om2")).items()}
    assert got == {(0, 0, 0): Fraction(-8, 81), (0, 1): -10}
    assert refs.read_tree("[x,[x,y]]", xy) == (0, (0, 1))


def test_runner_prints_the_metrics_benchmark_json_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tally = run.Tally()
    tally.latencies, tally.round_size, tally.attempted, tally.work = [("x", 0.5)], 1, 1, 0.5
    end = run._end_to_end(tally, 1.0, 2048)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in end.items()}
    functions = {name: {"calls": 1, "self_s": 0.1, "terms_out": 1} for name in run.spans.traced_names()}
    functions["chenint.path_series"]["distinct_loops"] = 1
    counters = {"projection_hits": 1, "projection_misses": 1, "shuffle_cache_entries": 3}
    layer = run._layer_metrics(functions, counters, {}, tally, 0.0)
    layer.update(run._trace_summary(tally, tally))
    layer.update(run._cli_metrics())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layer.items()}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]


def test_smoke_runs_every_workload_once():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    for workload in run.WORKLOADS:
        assert f"{workload}: " in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "loops", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert out.returncode != 0 and out.stdout == ""
