"""Melnikov-function calculus: the Gauss-Manin derivation on form words,
the nested integrand of the higher-order Poincare-Pontryagin functions, the
P_k / C_k pairing machinery for two quasi-homogeneous forms, the degree-5
vanishing example, and the Picard-Lefschetz monodromy reduction on the D4
vanishing-cycle configuration.

Monodromy conventions.  Vanishing cycles delta_1..delta_4 carry the
intersection pairing ``INTERSECTION`` below (antisymmetric, D4 star shape
with delta_2 at the center, cycles oriented so that delta_1, delta_3,
delta_4 all meet delta_2 positively).  The residue classes
alpha_1 = delta_1 - delta_3 and alpha_2 = delta_1 - delta_4 then intersect
every vanishing cycle trivially, so every monodromy h_i fixes them; this
orientation is what makes the operator identities of ``reduce_to_alpha``
hold on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .chenint import PairingTable, pair_graded
from .freegrp import GroupWord, commutator
from .liealg import LieTree, expand
from .ncalg import (
    TVAR,
    Alphabet,
    NcPoly,
    Scalar,
    coerce_scalar,
    collect,
    concat_mul,
    inner,
    scalar_dt,
    var,
)

__all__ = [
    "Connection",
    "WeightPair",
    "derive",
    "melnikov_integrand",
    "pk_closed_form",
    "ck",
    "ck_closed_form",
    "lk_tree",
    "example_ex_m5",
    "INTERSECTION",
    "H1Vector",
    "Grade2Element",
    "GRADE2_BASIS",
    "DELTA",
    "ALPHA",
    "wedge",
    "picard_lefschetz",
    "pl_grade2",
    "MONODROMY_OPS",
    "op_h",
    "op_id",
    "apply_operator",
    "reduce_to_alpha",
]


# ---------------------------------------------------------------------------
# Gauss-Manin derivation and the Melnikov integrand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Connection:
    """First-order system omega' = (1/Delta) A omega on the span of the
    forms: letter i maps to sum_j (A[i][j]/Delta) letter_j, and scalar
    coefficients are differentiated in t alongside."""

    forms: Alphabet
    delta_poly: Scalar
    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "delta_poly", coerce_scalar(self.delta_poly))
        m = len(self.forms)
        if len(self.matrix) != m or any(len(row) != m for row in self.matrix):
            raise ValueError(f"matrix must be {m}x{m} to match the forms")
        object.__setattr__(
            self,
            "matrix",
            tuple(tuple(coerce_scalar(e) for e in row) for row in self.matrix),
        )
        if not self.delta_poly:
            raise ValueError("denominator polynomial must be nonzero")

    @classmethod
    def diagonal(cls, weights, forms: Alphabet = None) -> "Connection":
        """t omega_i' = w_i omega_i: the quasi-homogeneous case."""
        weights = tuple(coerce_scalar(w) for w in weights)
        if forms is None:
            forms = Alphabet(tuple(f"om{i + 1}" for i in range(len(weights))))
        if len(forms) != len(weights):
            raise ValueError("one weight per form is required")
        zero = Fraction(0)
        matrix = tuple(
            tuple(weights[i] if i == j else zero for j in range(len(weights)))
            for i in range(len(weights))
        )
        return cls(forms, var(TVAR), matrix)

    def letter_image(self, i: int):
        """(j, A[i][j]/Delta) for the nonzero entries of row i."""
        return tuple(
            (j, e / self.delta_poly) for j, e in enumerate(self.matrix[i]) if e
        )


def derive(conn: Connection, p: NcPoly) -> NcPoly:
    """Leibniz derivative: differentiate each scalar coefficient in t and
    replace each letter, one position at a time, by its connection image."""
    if p.alphabet != conn.forms:
        raise ValueError("polynomial alphabet does not match the connection")
    images = tuple(conn.letter_image(i) for i in range(len(conn.forms)))

    def pairs():
        for word, c in p.terms.items():
            dc = scalar_dt(c)
            if dc:
                yield word, dc
            for pos, letter in enumerate(word):
                for j, s in images[letter]:
                    yield word[:pos] + (j,) + word[pos + 1 :], c * s

    return collect(p.alphabet, pairs())


def melnikov_integrand(conn: Connection, omega: NcPoly, k: int) -> NcPoly:
    """The degree-k word of forms whose iterated integral is the k-th order
    term of the perturbed holonomy: R_1 = omega, R_{j+1} = omega . (R_j)'."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if omega.is_zero() or not (omega.is_homogeneous() and omega.max_degree() == 1):
        raise ValueError("omega must be a nonzero degree-1 form combination")
    r = omega
    for _ in range(k - 1):
        r = concat_mul(omega, derive(conn, r))
    return r


# ---------------------------------------------------------------------------
# P_k / C_k for a pair of quasi-homogeneous forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightPair:
    """Weights of the two chosen forms; rationals or indeterminates."""

    w1: Scalar
    w2: Scalar

    def __post_init__(self):
        object.__setattr__(self, "w1", coerce_scalar(self.w1))
        object.__setattr__(self, "w2", coerce_scalar(self.w2))

    @classmethod
    def symbolic(cls) -> "WeightPair":
        return cls(var("w1"), var("w2"))


DEFAULT_PK_FORMS = Alphabet(("om1", "om2"))


def pk_closed_form(weights: WeightPair, k: int, i: int, forms: Alphabet = None) -> NcPoly:
    """Coefficient of alpha_1^i alpha_2^(k-i) in t^(k-1) P_k: the sum over
    words with i copies of the first form and k-i of the second, each with
    coefficient

        prod_{j=2}^{k} [ (w_{i_j} + w_{i_{j+1}} + ... + w_{i_k}) - (k - j) ]

    (the running sums attach to the tail of the word)."""
    if forms is None:
        forms = DEFAULT_PK_FORMS
    if len(forms) != 2:
        raise ValueError("a two-form alphabet is required")
    if k < 1:
        raise ValueError("degree k must be >= 1")
    if not 0 <= i <= k:
        raise ValueError(f"partition index must lie in 0..{k}, got {i}")
    wt = (weights.w1, weights.w2)
    terms: dict = {}
    for ones in combinations(range(k), i):
        word = tuple(0 if p in set(ones) else 1 for p in range(k))
        c: Scalar = Fraction(1)
        s: Scalar = Fraction(0)
        for j in range(k, 1, -1):
            s = s + wt[word[j - 1]]
            c = c * (s - (k - j))
        terms[word] = c
    return NcPoly(forms, terms)


def lk_tree(k: int, forms: Alphabet = None) -> LieTree:
    """[[...[[om1,om2],om2],...],om2] with k-1 copies of the second form."""
    if forms is None:
        forms = DEFAULT_PK_FORMS
    if k < 2:
        raise ValueError("degree k must be >= 2")
    t = LieTree.bracket(LieTree.leaf(forms.letters[0]), LieTree.leaf(forms.letters[1]))
    for _ in range(k - 2):
        t = LieTree.bracket(t, LieTree.leaf(forms.letters[1]))
    return t


def ck(weights: WeightPair, k: int) -> Scalar:
    """<P_k^1, L_k^1>: the pairing of the partition-(1, k-1) block against
    the left-nested bracket; vanishing of this scalar is what degenerate
    weight pairs would need."""
    if k < 2:
        raise ValueError("degree k must be >= 2")
    forms = DEFAULT_PK_FORMS
    return inner(pk_closed_form(weights, k, 1, forms), expand(lk_tree(k, forms), forms))


def ck_closed_form(weights: WeightPair, k: int) -> Scalar:
    """(w2 - w1) prod_{i=1}^{k-2} (i - w1 - (i-1) w2)."""
    if k < 2:
        raise ValueError("degree k must be >= 2")
    w1, w2 = weights.w1, weights.w2
    out = w2 - w1
    for i in range(1, k - 1):
        out = out * (i - w1 - (i - 1) * w2)
    return out


# ---------------------------------------------------------------------------
# The degree-5 vanishing example
# ---------------------------------------------------------------------------

EX_M5_PATHS = Alphabet(("a1", "a2"))
EX_M5_FORMS = Alphabet(("om0", "om1", "om2", "om3", "om4"))


def example_ex_m5() -> Scalar:
    """M_5 along ((( a1, a2), a1), (a1, a2)) of the word om0 om1^4, with
    every base integral of the five forms along the two loops kept as an
    independent indeterminate (ten in all).  Identically zero: the class of
    the loop is a degree-5 basic commutator, but the integrand only ever
    pairs repeated equal columns."""
    table = PairingTable.symbolic(EX_M5_PATHS, EX_M5_FORMS)
    a1 = GroupWord.generator(EX_M5_PATHS, 0)
    a2 = GroupWord.generator(EX_M5_PATHS, 1)
    gamma = commutator(commutator(commutator(a1, a2), a1), commutator(a1, a2))
    return pair_graded(table, gamma, (0, 1, 1, 1, 1))


# ---------------------------------------------------------------------------
# Picard-Lefschetz monodromy on the D4 configuration
# ---------------------------------------------------------------------------

#: (delta_i . delta_j), rows i, columns j.
INTERSECTION = (
    (0, 1, 0, 0),
    (-1, 0, -1, -1),
    (0, 1, 0, 0),
    (0, 1, 0, 0),
)

#: 4-vectors over the vanishing-cycle basis (delta_1, .., delta_4).
H1Vector = tuple

#: 6-vectors over GRADE2_BASIS.
Grade2Element = tuple

GRADE2_BASIS = (
    "[d1,d2]",
    "[d1,a1]",
    "[d1,a2]",
    "[d2,a1]",
    "[d2,a2]",
    "[a1,a2]",
)

#: delta-basis coordinates of delta_1..delta_4 and alpha_1, alpha_2.
DELTA = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ALPHA = ((1, 0, -1, 0), (1, 0, 0, -1))

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def picard_lefschetz(i: int, v) -> H1Vector:
    """h_i(v) = v - (v . delta_i) delta_i on delta-basis 4-vectors."""
    if i not in (1, 2, 3, 4):
        raise ValueError("monodromy index must be 1..4")
    if len(v) != 4:
        raise ValueError("a 4-vector over the vanishing cycles is required")
    v = tuple(coerce_scalar(c) for c in v)
    ip: Scalar = Fraction(0)
    for j in range(4):
        q = INTERSECTION[j][i - 1]
        if q:
            ip = ip + v[j] * q
    return tuple(v[j] - ip if j == i - 1 else v[j] for j in range(4))


def _delta_to_mixed(v):
    """Rewrite a delta-basis 4-vector over (delta_1, delta_2, alpha_1,
    alpha_2); the substitution delta_3 = delta_1 - alpha_1, delta_4 =
    delta_1 - alpha_2 makes this map an involution."""
    return (v[0] + v[2] + v[3], v[1], -v[2], -v[3])


def _pl_mixed_matrix(i):
    rows = []
    for e in range(4):
        basis_delta = _delta_to_mixed(tuple(1 if j == e else 0 for j in range(4)))
        image = picard_lefschetz(i, basis_delta)
        rows.append(tuple(int(c) for c in _delta_to_mixed(image)))
    return tuple(rows)


def _wedge(u, v):
    return tuple(u[p] * v[q] - u[q] * v[p] for p, q in _PAIRS)


def _pl_grade2_matrix(i):
    m = _pl_mixed_matrix(i)
    return tuple(_wedge(m[p], m[q]) for p, q in _PAIRS)


_PL_GRADE2 = tuple(_pl_grade2_matrix(i) for i in (1, 2, 3, 4))


def wedge(u, v) -> Grade2Element:
    """[u, v] for delta-basis 4-vectors, expanded over GRADE2_BASIS."""
    if len(u) != 4 or len(v) != 4:
        raise ValueError("4-vectors over the vanishing cycles are required")
    um = _delta_to_mixed(tuple(coerce_scalar(c) for c in u))
    vm = _delta_to_mixed(tuple(coerce_scalar(c) for c in v))
    return _wedge(um, vm)


def pl_grade2(i: int, g) -> Grade2Element:
    """Action of h_i on bracket classes: both slots transform, and the
    result is re-expanded over GRADE2_BASIS."""
    if i not in (1, 2, 3, 4):
        raise ValueError("monodromy index must be 1..4")
    if len(g) != 6:
        raise ValueError("a 6-vector over GRADE2_BASIS is required")
    g = tuple(coerce_scalar(c) for c in g)
    mat = _PL_GRADE2[i - 1]
    out = [Fraction(0)] * 6
    for idx in range(6):
        c = g[idx]
        if not c:
            continue
        row = mat[idx]
        for jdx in range(6):
            if row[jdx]:
                out[jdx] = out[jdx] + c * row[jdx]
    return tuple(out)


# ---------------------------------------------------------------------------
# Constructive reduction to a multiple of [a1,a2]
# ---------------------------------------------------------------------------

#: Operator words: letters are the four monodromies, concatenation is
#: composition with the rightmost letter applied first, and the empty word
#: is the identity.  Linear combinations live in NcPoly over this alphabet.
MONODROMY_OPS = Alphabet(("h1", "h2", "h3", "h4"))


def op_id() -> NcPoly:
    return NcPoly.one(MONODROMY_OPS)


def op_h(i: int) -> NcPoly:
    if i not in (1, 2, 3, 4):
        raise ValueError("monodromy index must be 1..4")
    return NcPoly.letter(MONODROMY_OPS, i - 1)


def apply_operator(op: NcPoly, g) -> Grade2Element:
    """Replay an operator polynomial on a bracket class.  Each word is a
    composition (rightmost monodromy acts first); words combine linearly."""
    if op.alphabet != MONODROMY_OPS:
        raise ValueError("operator polynomial must be over the monodromy letters")
    g = tuple(coerce_scalar(c) for c in g)
    out = [Fraction(0)] * 6
    for word, c in op.items():
        h = g
        for sym in reversed(word):
            h = pl_grade2(sym + 1, h)
        for jdx in range(6):
            if h[jdx]:
                out[jdx] = out[jdx] + c * h[jdx]
    return tuple(out)


def reduce_to_alpha(g):
    """An operator polynomial P and scalar k with P(g) = k [a1,a2], k != 0.

    Case analysis on g = m [d1,d2] + [d1,a] + [d2,b] + n [a1,a2] with
    a = c11 a1 + c12 a2, b = c21 a1 + c22 a2:

      h1 - id extracts [d1,b]; h2 - id extracts -[d2,a]; h3 - h1 and
      h4 - h1 read off a single alpha-component of a [d2,.] class; and
      h3 - h4 turns m [d1,d2] into m [d1, a2 - a1].
    """
    g = tuple(coerce_scalar(c) for c in g)
    if len(g) != 6:
        raise ValueError("a 6-vector over GRADE2_BASIS is required")
    m, c11, c12, c21, c22, n = g
    if not any(g):
        raise ValueError("the zero class cannot be reduced")
    h1, h2, h3, h4 = (op_h(i) for i in (1, 2, 3, 4))
    one = op_id()
    if c21 or c22:
        tail = (h2 - one) * (h1 - one)
        if c22:
            op, k = (h3 - h1) * tail, c22
        else:
            op, k = (h4 - h1) * tail, -c21
    elif c11 or c12:
        if c12:
            op, k = (h3 - h1) * (h2 - one), c12
        else:
            op, k = (h4 - h1) * (h2 - one), -c11
    elif m:
        op, k = (h3 - h1) * (h2 - one) * (h3 - h4), m
    else:
        op, k = one, n
    if type(k) is Fraction and k.denominator == 1:
        k = int(k)
    return op, k
