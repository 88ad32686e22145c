"""melnikov: integrands and coefficients on symbolic scalars.

One round: ``melnikov_integrand`` on diagonal connections with symbolic
weights and coefficients (orders 2-6) and with rational weights (orders 4-8),
and on full-matrix connections whose denominator is not a power of t (orders
2-4, one with symbolic entries); ``ck`` symbolic and at rational weights;
``example_ex_m5``; ``reduce_to_alpha`` followed by ``apply_operator``.
Integrands are checked at a seeded rational point: on diagonal connections
against the P_k product formula, on the others against a Taylor-jet
recomputation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import chenlie
from chenlie import melnikov
from chenlie.ncalg import Alphabet, NcPoly, scalar_str, var

import refs
from jobs import Job

FORMS = Alphabet(("om1", "om2"))
SYM_ORDERS = (2, 3, 4, 5, 6)
RAT_ORDERS = (4, 5, 6, 7, 8)
T_ONLY = (0, 1)       # the denominator t, as a coefficient list
# Full-matrix slots (order, symbolic diagonal entries), one per denominator
# that is not a power of t; coefficient lists start at t^0.
GEN_SLOTS = ((2, False), (3, False), (4, False), (3, True))
DENOMINATORS = (("t^2 - 1", (-1, 0, 1)), ("t^2 - t", (0, -1, 1)),
                ("t^2 + 1", (1, 0, 1)), ("t^2 - 3*t + 2", (2, -3, 1)))
CK_ORDERS = range(2, 8)


def setup(seed: int):
    """Connections shared by every round: the symbolic diagonal one and the
    parsed denominators."""
    w1, w2 = var("w1"), var("w2")
    omega = NcPoly(FORMS, {(0,): var("al1"), (1,): var("al2")})
    deltas = [(chenlie.parse_scalar(text), coeffs) for text, coeffs in DENOMINATORS]
    return melnikov.Connection.diagonal((w1, w2), FORMS), omega, deltas


def _q(rng, lo=-9, hi=9) -> Fraction:
    return Fraction(rng.choice([n for n in range(lo, hi + 1) if n]), rng.randint(1, 7))


def _point(rng, delta_coeffs) -> dict:
    env = {name: _q(rng) for name in ("w1", "w2", "al1", "al2", "a", "b")}
    while True:
        env["t"] = _q(rng)
        if sum(c * env["t"] ** i for i, c in enumerate(delta_coeffs)):
            return env


def _values(poly, env) -> dict:
    """The program's coefficients evaluated at env, zeros dropped."""
    out = {w: refs.eval_scalar(scalar_str(c), env) for w, c in poly.items()}
    return {w: v for w, v in out.items() if v}


def _integrand_job(kind, conn, omega, omega_ref, k, env, delta_coeffs, matrix_ref, weights_ref):
    """The *_ref arguments restate the connection for the reference, as
    Fractions or names of indeterminates read at env.  Diagonal connections
    (weights_ref given) are checked against the P_k product formula, the
    others against the Taylor-jet recomputation."""
    def at(x):
        return refs.eval_scalar(x, env) if isinstance(x, str) else Fraction(x)

    def run():
        return melnikov.melnikov_integrand(conn, omega, k)

    def check(out):
        got = _values(out, env)
        om = [at(a) for a in omega_ref]
        if weights_ref is None:
            mat = [[at(e) for e in row] for row in matrix_ref]
            want = refs.integrand_at(delta_coeffs, mat, om, k, env["t"])
            assert got == want, (kind, k, "integrand differs from the jet recomputation")
        else:
            wts = [at(w) for w in weights_ref]
            want = {}
            for w in refs.words(2, k):
                c = refs.pk_coeff(w, wts) / env["t"] ** (k - 1)
                for i in w:
                    c *= om[i]
                if c:
                    want[w] = c
            assert got == want, (kind, k, "integrand differs from the P_k formula")

    return Job(kind, run, check)


def _ck_job(rng, sym_w):
    rat = (_q(rng, -4, 4), _q(rng, -4, 4))
    env = {"w1": _q(rng), "w2": _q(rng)}
    rat_w = melnikov.WeightPair(*rat)

    def run():
        return ([melnikov.ck(sym_w, k) for k in CK_ORDERS],
                [melnikov.ck(rat_w, k) for k in CK_ORDERS])

    def check(out):
        sym, num = out
        for k, s, n in zip(CK_ORDERS, sym, num):
            want = refs.ck_closed(env["w1"], env["w2"], k)
            assert refs.eval_scalar(scalar_str(s), env) == want, ("ck symbolic", k)
            assert want == refs.ck_pairing(env["w1"], env["w2"], k), ("C_k reference", k)
            assert n == refs.ck_closed(*rat, k) == refs.ck_pairing(*rat, k), ("ck", rat, k)

    return Job("ck", run, check)


def _m5_job():
    def check(out):
        assert out == 0 and isinstance(out, Fraction), out

    return Job("ex_m5", melnikov.example_ex_m5, check)


def _monodromy_job(rng):
    vecs = []
    while len(vecs) < 3:
        g = tuple(rng.randint(-3, 3) for _ in range(6))
        if any(g):
            vecs.append(g)

    def run():
        out = []
        for g in vecs:
            op, k = melnikov.reduce_to_alpha(g)
            out.append((op, k, melnikov.apply_operator(op, g)))
        return out

    def check(out):
        for g, (op, k, image) in zip(vecs, out):
            target = (0, 0, 0, 0, 0, k)
            assert k != 0, (g, "zero multiple")
            assert image == target, (g, "apply_operator")
            assert refs.replay_operator(dict(op.items()), g) == target, (g, "replay")

    return Job("monodromy", run, check)


def rounds(state, seed: int):
    sym_conn, sym_omega, deltas = state
    sym_w = melnikov.WeightPair.symbolic()
    sym_ref = ("al1", "al2")
    zero = Fraction(0)
    rng = random.Random(f"melnikov-{seed}")
    while True:
        jobs = [_integrand_job("sym_diagonal", sym_conn, sym_omega, sym_ref, k,
                               _point(rng, T_ONLY), T_ONLY, (("w1", zero), (zero, "w2")),
                               ("w1", "w2"))
                for k in SYM_ORDERS]
        for k in RAT_ORDERS:
            w = (_q(rng, -4, 4), _q(rng, -4, 4))
            om = (_q(rng), _q(rng))
            jobs.append(_integrand_job(
                "rational_diagonal", melnikov.Connection.diagonal(w, FORMS),
                NcPoly(FORMS, {(0,): om[0], (1,): om[1]}), om, k, _point(rng, T_ONLY),
                T_ONLY, ((w[0], zero), (zero, w[1])), w))
        for (k, symbolic), (delta, coeffs) in zip(GEN_SLOTS, deltas):
            ref = [[_q(rng, -3, 3) for _ in range(2)] for _ in range(2)]
            if symbolic:
                ref[0][0], ref[1][1] = "a", "b"
            matrix = [[var(e) if isinstance(e, str) else e for e in row] for row in ref]
            jobs.append(_integrand_job(
                "full_matrix", melnikov.Connection(FORMS, delta, matrix), sym_omega, sym_ref,
                k, _point(rng, coeffs), coeffs, ref, None))
        jobs += [_ck_job(rng, sym_w), _m5_job(), _monodromy_job(rng)]
        yield jobs
