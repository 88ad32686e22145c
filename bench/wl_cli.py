"""cli: a seeded sequence of ``python -m chenlie.cli --json ...`` children.

One child at a time, so every job pays interpreter start, ``import chenlie``
and cold caches, and only here do ``parser`` and ``cli`` run.  Jobs carry
enough compute (two cold projections, a degree-5 integrand, a degree-6
Magnus series) that interpreter start is not most of a round.  Two inputs
nest deeply; a child that ends in a traceback rather than in a result or a
one-line ``error:`` counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import refs
from jobs import Job, OperationFailed

CHILD_TIMEOUT_S = 120
XYZ = ("x", "y", "z")
PARENS = 400          # nested parentheses around one letter
BRACKETS = 699        # nested brackets [x,[x,...[x,y]...]] around 700 letters


class State:
    def __init__(self, root: str, out_dir: str, seed: int):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.table_path = os.path.join(out_dir, f"cli-table-{seed}.json")
        self.table = None
        self.tracing = False            # run children through cli_child.py
        self.trace_files: list = []     # their statistics files, until collected


def setup(seed: int, root: str, out_dir: str) -> State:
    """Writes the seeded pairing-table document the table-model jobs read."""
    state = State(root, out_dir, seed)
    rng = random.Random(f"cli-table-{seed}")
    state.table = [[_q(rng) for _ in range(2)] for _ in range(2)]
    doc = {"alphabet": ["a", "b"], "forms": ["f1", "f2"],
           "table": [[str(c) for c in row] for row in state.table]}
    with open(state.table_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return state


def _q(rng) -> Fraction:
    return Fraction(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 5))


def _call(state: State, argv: list):
    """Run one child; returns (exit status, stdout, stderr)."""
    if state.tracing:
        path = os.path.join(state.out_dir, f"cli-trace-{len(state.trace_files)}.json")
        state.trace_files.append(path)
        cmd = [sys.executable, os.path.join(state.root, "bench", "cli_child.py"), path, "--json"]
    else:
        cmd = [sys.executable, "-m", "chenlie.cli", "--json"]
    try:
        proc = subprocess.run(cmd + argv, cwd=state.root, env=state.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise OperationFailed(f"{argv[0]}: no answer within {CHILD_TIMEOUT_S} s")
    return proc.returncode, proc.stdout, proc.stderr


def _payload(result, argv) -> dict:
    """The JSON line of a child that completed; anything else is a failed
    operation."""
    status, out, err = result
    if status != 0:
        last = err.strip().splitlines()[-1:] or [""]
        raise OperationFailed(f"{argv[0]}: exit {status}: {last[0][:200]}")
    return json.loads(out)


def _job(state, kind, argv, check):
    return Job(kind, lambda: _call(state, argv), lambda result: check(_payload(result, argv)))


def _poly_text(poly: dict, letters) -> str:
    """A CLI expression for a Fraction word polynomial."""
    terms = [f"({c}) {' '.join(letters[i] for i in w)}" for w, c in sorted(poly.items())]
    return " + ".join(terms)


def _random_poly(rng, m, k, n_terms=6) -> dict:
    poly: dict = {}
    while not poly:
        for _ in range(n_terms):
            w = tuple(rng.randrange(m) for _ in range(k))
            poly = refs.padd(poly, {w: _q(rng)})
    return poly


def _tree(rng, m, d):
    return refs.random_tree(rng, rng.choice(refs.live_shapes(m, d)), m)


def _project(state, rng, m, k):
    letters = XYZ[:m]
    poly = _random_poly(rng, m, k)

    def check(doc):
        lie = refs.read_fraction_poly(doc["lie"], letters)
        shf = refs.read_fraction_poly(doc["shuffle"], letters)
        assert refs.padd(lie, shf) == poly, ("project", m, k, "lie + shuffle != p")
        assert refs.is_lie_dsw(lie), ("project", m, k, "Lie part")
        assert refs.orthogonal_to_lie(shf, m, k), ("project", m, k, "shuffle part")

    argv = ["project", _poly_text(poly, letters), "--letters", ",".join(letters)]
    return _job(state, "project", argv, check)


def _integrand(state, rng, k=5):
    om = (_q(rng), _q(rng))
    env = {"w1": _q(rng), "w2": _q(rng), "t": _q(rng)}

    def check(doc):
        got = {w: refs.eval_scalar(c, env) for w, c in refs.read_poly(doc["value"], ("om1", "om2")).items()}
        got = {w: v for w, v in got.items() if v}
        want = refs.integrand_at((0, 1), [[env["w1"], 0], [0, env["w2"]]], om, k, env["t"])
        assert got == want, ("integrand", k)

    argv = ["integrand", "-k", str(k), "--omega", f"({om[0]}) om1 + ({om[1]}) om2"]
    return _job(state, "integrand", argv, check)


def _magnus(state, rng, n=6):
    tree, _ = _tree(rng, 2, 4)

    def check(doc):
        want = refs.magnus(refs.loop_entries(tree), n)
        assert refs.read_fraction_poly(doc["value"], XYZ[:2]) == want, ("magnus", tree)

    argv = ["magnus", "-N", str(n), refs.commutator_text(tree, XYZ), "--letters", "x,y"]
    return _job(state, "magnus", argv, check)


def _lcs(state, rng, d=4):
    tree, _ = _tree(rng, 2, d)

    def check(doc):
        assert doc["value"] == d, ("lcs", tree, doc["value"])

    argv = ["lcs", refs.commutator_text(tree, XYZ), "--letters", "x,y"]
    return _job(state, "lcs", argv, check)


def _eval_canonical(state, rng, d=4):
    tree, lead = _tree(rng, 3, d)
    word = tuple(rng.randrange(3) for _ in range(d))
    identity = [[int(i == j) for j in range(3)] for i in range(3)]

    def check(doc):
        want = refs.leading_pairing(lead, identity, word)
        assert refs.eval_scalar(doc["value"], {}) == want, ("eval", tree, word)

    argv = ["eval", refs.commutator_text(tree, XYZ), " ".join(XYZ[i] for i in word),
            "--letters", "x,y,z"]
    return _job(state, "eval", argv, check)


def _eval_table(state, rng, d=5):
    tree, lead = _tree(rng, 2, d)
    word = tuple(rng.randrange(2) for _ in range(d))

    def check(doc):
        want = refs.leading_pairing(lead, state.table, word)
        assert refs.eval_scalar(doc["value"], {}) == want, ("eval table", tree, word)

    argv = ["eval", refs.commutator_text(tree, ("a", "b")), " ".join(("f1", "f2")[i] for i in word),
            "--model", state.table_path]
    return _job(state, "eval", argv, check)


def _hall(state, m=3, k=5):
    def check(doc):
        trees = [refs.read_tree(t, XYZ[:m]) for t in doc["elements"]]
        assert doc["count"] == len(set(trees)) == refs.witt(m, k), ("hall", m, k)
        assert all(refs.tree_degree(t) == k and refs.is_lie_dsw(refs.expand_tree(t)) for t in trees)

    return _job(state, "hall", ["hall", "-m", str(m), "-k", str(k)], check)


def _ck(state, rng, k=7):
    env = {"w1": _q(rng), "w2": _q(rng)}

    def check(doc):
        assert refs.eval_scalar(doc["value"], env) == refs.ck_closed(env["w1"], env["w2"], k)

    return _job(state, "ck", ["ck", "-k", str(k)], check)


def _pair(state, rng, d=5):
    (t1, e1), (t2, e2) = _tree(rng, 3, d), _tree(rng, 3, d)

    def check(doc):
        assert refs.eval_scalar(doc["value"], {}) == refs.pair(e1, e2), ("pair", t1, t2)

    argv = ["pair", refs.tree_text(t1, XYZ), refs.tree_text(t2, XYZ), "--letters", "x,y,z"]
    return _job(state, "pair", argv, check)


def _islie(state, rng, d=6):
    trees = [_tree(rng, 2, d) for _ in range(3)]
    coeffs = [_q(rng) for _ in trees]
    text = " + ".join(f"({c})*{refs.tree_text(t, XYZ)}" for c, (t, _) in zip(coeffs, trees))

    def check(doc):
        assert doc["value"] is True, ("islie", text)

    return _job(state, "islie", ["islie", text, "--letters", "x,y"], check)


def _m5check(state):
    def check(doc):
        assert doc["identity_holds"] is True and doc["value"] == "0", doc

    return _job(state, "m5check", ["m5check"], check)


def _monodromy(state, rng):
    g = (0,) * 6
    while not any(g):
        g = tuple(rng.randint(-4, 4) for _ in range(6))

    def check(doc):
        k = int(doc["k"])
        op = refs.read_fraction_poly(doc["op"], ("h1", "h2", "h3", "h4"))
        assert k != 0 and refs.replay_operator(op, g) == (0, 0, 0, 0, 0, k), ("monodromy", g)

    # "--" ends the options, since a vector may start with a minus sign
    return _job(state, "monodromy", ["monodromy", "reduce", "--", ",".join(map(str, g))], check)


def _deep(state, text, want: dict, letters):
    """Accepted: the expansion, or exit 1 with a single 'error:' line."""
    argv = ["expand", text]

    def check(result):
        status, _, err = result
        if status == 1 and err.startswith("error:") and len(err.strip().splitlines()) == 1:
            return
        assert refs.read_fraction_poly(_payload(result, argv)["value"], letters) == want

    return Job("expand_deep", lambda: _call(state, argv), check)


def _deep_jobs(state):
    """Inputs that do not depend on the seed."""
    parens = _deep(state, "(" * PARENS + "x" + ")" * PARENS, {(0,): 1}, ("x",))
    n = BRACKETS
    ad = {(0,) * (n - i) + (1,) + (0,) * i: (-1) ** i * comb(n, i) for i in range(n + 1)}
    brackets = _deep(state, "[x," * n + "y" + "]" * n, ad, ("x", "y"))
    return [parens, brackets]


def rounds(state: State, seed: int):
    rng = random.Random(f"cli-{seed}")
    deep = _deep_jobs(state)
    while True:
        yield [
            _project(state, rng, 3, 5),
            _project(state, rng, 2, 8),
            _integrand(state, rng),
            _magnus(state, rng),
            _lcs(state, rng),
            _eval_canonical(state, rng),
            _eval_table(state, rng),
            _hall(state),
            _ck(state, rng),
            _pair(state, rng),
            _islie(state, rng),
            _m5check(state),
            _monodromy(state, rng),
        ] + deep
