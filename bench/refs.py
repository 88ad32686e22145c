"""Reference computations for the benchmark checks, kept apart from chenlie.

Everything here works on plain Python data: a polynomial is a dict mapping a
word (tuple of letter indices) to a Fraction, a bracket tree is a letter
index or a pair (left, right), and scalars are Fractions.  No chenlie import
appears in this module, so a fault in the program cannot hide in its own
check.  The readers at the end turn the program's printed forms back into
these plain values.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

# -- polynomials over words ---------------------------------------------------


def padd(p: dict, q: dict, scale=1) -> dict:
    """p + scale * q, zero terms dropped."""
    out = dict(p)
    for w, c in q.items():
        s = out.get(w, 0) + scale * c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def pconcat(p: dict, q: dict) -> dict:
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            w = u + v
            out[w] = out.get(w, 0) + a * b
    return {w: c for w, c in out.items() if c}


def bracket(p: dict, q: dict) -> dict:
    return padd(pconcat(p, q), pconcat(q, p), -1)


def pair(p: dict, q: dict):
    """Canonical pairing: words are orthonormal."""
    return sum((c * q[w] for w, c in p.items() if w in q), Fraction(0))


def shuffle_words(u: tuple, v: tuple) -> dict:
    """Interleavings of u and v with multiplicities, by dynamic programming
    over prefix lengths (i of u, j of v)."""
    table = {(0, 0): {(): 1}}
    for i in range(len(u) + 1):
        for j in range(len(v) + 1):
            if i == j == 0:
                continue
            cell: dict = {}
            if i:
                for w, c in table[(i - 1, j)].items():
                    w2 = w + (u[i - 1],)
                    cell[w2] = cell.get(w2, 0) + c
            if j:
                for w, c in table[(i, j - 1)].items():
                    w2 = w + (v[j - 1],)
                    cell[w2] = cell.get(w2, 0) + c
            table[(i, j)] = cell
    return table[(len(u), len(v))]


def pshuffle(p: dict, q: dict) -> dict:
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            for w, m in shuffle_words(u, v).items():
                out[w] = out.get(w, 0) + a * b * m
    return {w: c for w, c in out.items() if c}


def words(m: int, k: int):
    return list(product(range(m), repeat=k))


# -- bracket trees ------------------------------------------------------------


def tree_degree(tree) -> int:
    return 1 if isinstance(tree, int) else tree_degree(tree[0]) + tree_degree(tree[1])


def expand_tree(tree) -> dict:
    """[a, b] = ab - ba, recursively."""
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    return bracket(expand_tree(tree[0]), expand_tree(tree[1]))


def tree_text(tree, letters) -> str:
    """Bracket notation, [a,b]."""
    if isinstance(tree, int):
        return letters[tree]
    return f"[{tree_text(tree[0], letters)},{tree_text(tree[1], letters)}]"


def commutator_text(tree, letters) -> str:
    """The same tree as an iterated group commutator, (a,b) = a b a^-1 b^-1."""
    if isinstance(tree, int):
        return letters[tree]
    return f"({commutator_text(tree[0], letters)},{commutator_text(tree[1], letters)})"


def loop_entries(tree) -> tuple:
    """The reduced free-group word of the commutator tree, as (letter, +-1)."""
    def word(t):
        if isinstance(t, int):
            return [(t, 1)]
        a, b = word(t[0]), word(t[1])
        inv = lambda w: [(i, -e) for i, e in reversed(w)]
        return a + b + inv(a) + inv(b)

    stack: list = []
    for i, e in word(tree):
        if stack and stack[-1] == (i, -e):
            stack.pop()
        else:
            stack.append((i, e))
    return tuple(stack)


def tree_shapes(k: int) -> list:
    """Every binary tree shape with k leaves (leaves marked None)."""
    if k == 1:
        return [None]
    return [(a, b) for s in range(1, k) for a in tree_shapes(s) for b in tree_shapes(k - s)]


def label_shape(shape, rng, m: int):
    if shape is None:
        return rng.randrange(m)
    return (label_shape(shape[0], rng, m), label_shape(shape[1], rng, m))


def _labelings(shape, m: int):
    if shape is None:
        yield from range(m)
        return
    for a in _labelings(shape[0], m):
        for b in _labelings(shape[1], m):
            yield (a, b)


def _unreduced_length(shape) -> int:
    return 1 if shape is None else 2 * (_unreduced_length(shape[0]) + _unreduced_length(shape[1]))


def _acceptable(tree, shape) -> bool:
    """A nonzero expansion, and a commutator loop that free reduction does
    not shorten, so that the loop length (and with it the cost of a job on
    the loop) is set by the shape, not by the letters."""
    return bool(expand_tree(tree)) and len(loop_entries(tree)) == _unreduced_length(shape)


@lru_cache(maxsize=None)
def live_shapes(m: int, k: int) -> tuple:
    """The shapes with k leaves that have an acceptable labeling by m
    letters (over two letters, [[a,b],[c,d]] is always zero)."""
    return tuple(s for s in tree_shapes(k) if any(_acceptable(t, s) for t in _labelings(s, m)))


def random_tree(rng, shape, m: int):
    """A random acceptable labeling of shape: (tree, expansion)."""
    while True:
        tree = label_shape(shape, rng, m)
        if _acceptable(tree, shape):
            return tree, expand_tree(tree)


def magnus(entries, n: int) -> dict:
    """Image of a free-group word under letter -> exp(+-letter), truncated
    beyond degree n."""
    out = {(): Fraction(1)}
    for i, e in entries:
        factor = {(i,) * d: Fraction(e ** d, factorial(d)) for d in range(n + 1)}
        out = {w: c for w, c in pconcat(out, factor).items() if len(w) <= n}
    return out


# -- Witt numbers and the Dynkin-Specht-Wever test ----------------------------


def mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def witt(m: int, k: int) -> int:
    """Dimension of the degree-k free Lie algebra on m letters."""
    return sum(mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


_THETA: dict = {}


def theta_word(w: tuple) -> dict:
    """Left-normed bracketing [..[[w1,w2],w3],..,wk]."""
    hit = _THETA.get(w)
    if hit is None:
        acc = {w[:1]: Fraction(1)}
        for a in w[1:]:
            acc = bracket(acc, {(a,): Fraction(1)})
        hit = _THETA[w] = acc
    return hit


def theta(p: dict) -> dict:
    out: dict = {}
    for w, c in p.items():
        for u, d in theta_word(w).items():
            out[u] = out.get(u, 0) + c * d
    return {u: c for u, c in out.items() if c}


def is_lie_dsw(p: dict) -> bool:
    """Dynkin-Specht-Wever: a homogeneous p of degree k is a Lie element iff
    theta(p) = k p."""
    if not p:
        return True
    degrees = {len(w) for w in p}
    if len(degrees) != 1:
        return all(is_lie_dsw({w: c for w, c in p.items() if len(w) == k}) for k in degrees)
    k = degrees.pop()
    if k == 0:
        return False
    return theta(p) == {w: k * c for w, c in p.items()}


@lru_cache(maxsize=None)
def _theta_transpose(m: int, k: int) -> dict:
    """u -> [(w, <theta(w), u>)] over the words w of length k."""
    out: dict = {}
    for w in words(m, k):
        for u, c in theta_word(w).items():
            out.setdefault(u, []).append((w, c))
    return out


def orthogonal_to_lie(p: dict, m: int, k: int) -> bool:
    """<p, theta(w)> = 0 for every word w of length k; the theta(w) span the
    degree-k Lie elements, so this is orthogonality to the whole Lie slice."""
    acc: dict = {}
    table = _theta_transpose(m, k)
    for u, c in p.items():
        for w, d in table.get(u, ()):
            acc[w] = acc.get(w, 0) + c * d
    return not any(acc.values())


# -- iterated integrals along commutator loops --------------------------------


def leading_pairing(lead: dict, table, omega: tuple):
    """sum over u of <lead, u> * prod_s table[u_s][omega_s]: the iterated
    integral of the degree-k word omega along a loop whose leading Lie
    element is lead, in a model whose generator series have linear parts
    table[i][j] (the identity table for the canonical model)."""
    total = Fraction(0)
    for u, c in lead.items():
        if len(u) != len(omega):
            continue
        prod = c
        for a, b in zip(u, omega):
            prod *= table[a][b]
        total += prod
    return total


# -- Melnikov integrands: P_k, C_k, and a Taylor-jet integrand ----------------


def pk_coeff(word: tuple, weights) -> Fraction:
    """prod_{j=2}^{k} ((w_{i_j} + ... + w_{i_k}) - (k - j)) for a word of form
    indices; weights[i] is the weight of form i."""
    k = len(word)
    c, s = Fraction(1), Fraction(0)
    for j in range(k, 1, -1):
        s += weights[word[j - 1]]
        c *= s - (k - j)
    return c


def ck_closed(w1, w2, k: int) -> Fraction:
    """(w2 - w1) prod_{i=1}^{k-2} (i - w1 - (i-1) w2)."""
    out = Fraction(w2 - w1)
    for i in range(1, k - 1):
        out *= i - w1 - (i - 1) * w2
    return out


def ck_pairing(w1, w2, k: int) -> Fraction:
    """C_k from its definition: the pairing of the words with one copy of the
    first form, weighted by pk_coeff, against [[..[om1,om2],..],om2]."""
    tree = 0
    for _ in range(k - 1):
        tree = (tree, 1)
    lead = expand_tree(tree)
    total = Fraction(0)
    for w, c in lead.items():
        if w.count(0) == 1:
            total += c * pk_coeff(w, (w1, w2))
    return total


def _jet_mul(a, b):
    n = len(a)
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n)]


def _jet_inv(a):
    n = len(a)
    out = [Fraction(1) / a[0]] + [Fraction(0)] * (n - 1)
    for j in range(1, n):
        out[j] = -sum(a[i] * out[j - i] for i in range(1, j + 1)) / a[0]
    return out


def _jet_dt(a):
    return [i * a[i] for i in range(1, len(a))] + [Fraction(0)]


def _poly_jet(coeffs, t0, n):
    """Taylor coefficients at t0 of sum_i coeffs[i] t^i, truncated to n."""
    out = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)      # (t0 + s)^i
    for c in coeffs:
        for j in range(n):
            out[j] += c * power[j]
        power = [power[j] * t0 + (power[j - 1] if j else 0) for j in range(n)]
    return out


def integrand_at(delta_coeffs, matrix, omega, k: int, t0) -> dict:
    """Value at t = t0 of every coefficient of the order-k integrand
    R_1 = omega, R_{j+1} = omega . D(R_j), where D differentiates the
    coefficients in t and sends form i to sum_j (matrix[i][j]/Delta) form j.
    Coefficients are carried as Taylor jets in (t - t0), so the derivatives
    are exact; Delta(t0) must be nonzero.  Returns word -> Fraction."""
    n = k
    dinv = _jet_inv(_poly_jet(delta_coeffs, t0, n))
    conn = [[[Fraction(e) * x for x in dinv] for e in row] for row in matrix]
    const = lambda c: [Fraction(c)] + [Fraction(0)] * (n - 1)
    r = {(i,): const(a) for i, a in enumerate(omega) if a}
    for _ in range(k - 1):
        d: dict = {}
        for w, c in r.items():
            d[w] = [x + y for x, y in zip(d.get(w, const(0)), _jet_dt(c))]
            for pos, letter in enumerate(w):
                for j, e in enumerate(conn[letter]):
                    if not any(e):
                        continue
                    w2 = w[:pos] + (j,) + w[pos + 1:]
                    d[w2] = [x + y for x, y in zip(d.get(w2, const(0)), _jet_mul(c, e))]
        r = {}
        for i, a in enumerate(omega):
            if a:
                for w, c in d.items():
                    r[(i,) + w] = [a * x for x in c]
    return {w: c[0] for w, c in r.items() if c[0]}


# -- Picard-Lefschetz monodromy on the D4 configuration -----------------------

# delta_i . delta_j for the D4 star with delta_2 at the center.
D4_INTERSECTION = ((0, 1, 0, 0), (-1, 0, -1, -1), (0, 1, 0, 0), (0, 1, 0, 0))
# Mixed basis (d1, d2, a1, a2) with a1 = d1 - d3, a2 = d1 - d4, in delta
# coordinates; the grade-2 basis is the wedges of mixed basis pairs.
_MIXED = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1))
GRADE2_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pl_delta(i: int, v):
    """h_i(v) = v - (v . delta_i) delta_i, i in 1..4, delta coordinates."""
    ip = sum(v[j] * D4_INTERSECTION[j][i - 1] for j in range(4))
    return tuple(v[j] - ip if j == i - 1 else v[j] for j in range(4))


def _to_mixed(v):
    return (v[0] + v[2] + v[3], v[1], -v[2], -v[3])


def pl_grade2_matrix(i: int):
    """Integer 6x6 matrix of h_i on the grade-2 basis; row p is the image of
    basis element p."""
    cols = [_to_mixed(_pl_delta(i, e)) for e in _MIXED]      # h_i on mixed basis
    rows = []
    for p, q in GRADE2_PAIRS:
        u, v = cols[p], cols[q]
        rows.append(tuple(u[r] * v[s] - u[s] * v[r] for r, s in GRADE2_PAIRS))
    return tuple(rows)


PL_GRADE2 = tuple(pl_grade2_matrix(i) for i in (1, 2, 3, 4))


def replay_operator(op: dict, g) -> tuple:
    """Apply an operator polynomial over the letters h1..h4 (indices 0..3),
    rightmost letter first, to a grade-2 6-vector."""
    out = [Fraction(0)] * 6
    for word, c in op.items():
        h = tuple(Fraction(x) for x in g)
        for sym in reversed(word):
            mat = PL_GRADE2[sym]
            h = tuple(sum(h[p] * mat[p][q] for p in range(6)) for q in range(6))
        out = [o + c * x for o, x in zip(out, h)]
    return tuple(out)


# -- readers for the program's printed forms ----------------------------------

_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b}


def eval_scalar(text: str, env: dict) -> Fraction:
    """Value of a printed exact scalar ("3/4", "w2 - w1", "(al1^2*w1)/t^2")
    with every indeterminate replaced by the Fraction given in env."""
    def ev(node):
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                return ev(node.left) ** int(ev(node.right))
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(env[node.id])
        raise ValueError(f"unexpected scalar syntax in {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval").body)


def _split_terms(text: str):
    """Top-level ' + ' / ' - ' split of a printed sum: (sign, term) pairs."""
    out, depth, start, sign = [], 0, 0, 1
    text = text.strip()
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and text.startswith((" + ", " - "), i):
            out.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            start = i = i + 3
            continue
        i += 1
    out.append((sign, text[start:]))
    return out


_WORD_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")


def _read_word(text: str, letters):
    word = []
    for tok in text.split():
        m = _WORD_TOKEN.match(tok)
        if not m or m.group(1) not in letters:
            return None
        word += [letters.index(m.group(1))] * int(m.group(2) or 1)
    return tuple(word)


def read_poly(text: str, letters) -> dict:
    """Printed word polynomial -> {word: coefficient text}.  Coefficient
    texts carry their sign and are read with eval_scalar."""
    if text.strip() == "0":
        return {}
    out = {}
    for sign, term in _split_terms(text):
        if term.startswith("("):
            depth = 0
            for end, ch in enumerate(term):
                depth += (ch == "(") - (ch == ")")
                if depth == 0:
                    break
            coef, rest = term[: end + 1], term[end + 1:]
            word = _read_word(rest[1:], letters) if rest.startswith("*") else ()
        else:
            body, den = term, "1"
            m = re.fullmatch(r"(.*)/(\d+)", body)
            if m:
                body, den = m.group(1), m.group(2)
            parts = body.split("*")
            word = _read_word(parts[-1], letters)
            if word is None or not parts[-1].strip():
                word, parts = (), parts + ["1"]
            coef = f"({'*'.join(parts[:-1]) or '1'})/{den}"
        if word is None:
            raise ValueError(f"unreadable term {term!r}")
        out[word] = f"{'-' if sign < 0 else ''}{coef}"
    return out


def read_fraction_poly(text: str, letters) -> dict:
    return {w: eval_scalar(c, {}) for w, c in read_poly(text, letters).items()}


def read_tree(text: str, letters):
    """'[x,[x,y]]' -> nested pairs of letter indices."""
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "[":
            pos += 1
            left = node()
            if text[pos] != ",":
                raise ValueError(f"bad bracket text {text!r}")
            pos += 1
            right = node()
            if text[pos] != "]":
                raise ValueError(f"bad bracket text {text!r}")
            pos += 1
            return (left, right)
        m = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").match(text, pos)
        if not m:
            raise ValueError(f"bad bracket text {text!r}")
        pos = m.end()
        return letters.index(m.group(0))

    tree = node()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return tree
