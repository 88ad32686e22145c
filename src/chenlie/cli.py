"""Command-line interface.

Notation: brackets ``[a,b]`` are Lie brackets (ab - ba after expansion);
parentheses ``(a,b)`` inside group-word arguments are group commutators
a b a^-1 b^-1; ``#`` is the shuffle product; ``^-1`` inverts a group word.
Any expression argument may be ``-`` to read from standard input.

Output is human text by default; ``--json`` emits one line of JSON with
top-level ``"schema": 1`` and every exact scalar rendered as a string.
Connections and pairing tables load from JSON documents of the shape
``{alphabet, delta_poly, matrix}`` / ``{alphabet, weights}`` /
``{alphabet, forms, table}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .chenint import PairingTable, canonical_model, evaluate, pair_graded
from .freegrp import DEFAULT_LCS_BOUND, lcs_degree, magnus
from .liealg import decompose, hall_basis, is_lie, witt_number
from .melnikov import (
    Connection,
    WeightPair,
    apply_operator,
    ck,
    example_ex_m5,
    melnikov_integrand,
    pk_closed_form,
    reduce_to_alpha,
    wedge,
    ALPHA,
)
from .ncalg import (
    Alphabet,
    NcPoly,
    default_letters,
    inner,
    scalar_str,
    var,
)
from .parser import (
    ParseError,
    build_gw,
    build_poly,
    infer_alphabet,
    parse,
    parse_scalar,
)

__all__ = ["run", "main"]


def _csv(text: str) -> tuple:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items:
        raise ValueError(f"empty list: {text!r}")
    return items


def _arg_text(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _alphabet(args, nodes) -> Alphabet:
    if getattr(args, "letters", None):
        return Alphabet(_csv(args.letters))
    scalars = _csv(args.vars) if getattr(args, "vars", None) else ()
    return infer_alphabet(nodes, scalars)


def _weights(args) -> WeightPair:
    if args.weights:
        parts = _csv(args.weights)
        if len(parts) != 2:
            raise ValueError("--weights takes two comma-separated rationals")
        return WeightPair(*(_weight(p) for p in parts))
    return WeightPair.symbolic()


def _weight(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--weights: zero denominator in {text!r}") from None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _field(doc: dict, path: str, key: str):
    if key not in doc:
        raise ValueError(f"{path}: missing field {key!r}")
    return doc[key]


def _list(doc: dict, path: str, key: str) -> list:
    value = _field(doc, path, key)
    if not isinstance(value, list):
        raise ValueError(f"{path}: field {key!r} must be a JSON list")
    return value


def _letters(doc: dict, path: str, key: str) -> Alphabet:
    names = _list(doc, path, key)
    if not all(isinstance(n, str) for n in names):
        raise ValueError(f"{path}: field {key!r} must be a list of strings")
    return Alphabet(tuple(names))


def _scalar(value, path: str, key: str):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{path}: field {key!r} entries must be integers or strings")
    return parse_scalar(str(value))


def _rows(doc: dict, path: str, key: str) -> tuple:
    rows = _list(doc, path, key)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{path}: field {key!r} must be a list of lists")
    return tuple(tuple(_scalar(e, path, key) for e in row) for row in rows)


def load_connection(path: str) -> Connection:
    """{alphabet, delta_poly, matrix} or {alphabet, weights}."""
    doc = _load_json(path)
    forms = _letters(doc, path, "alphabet")
    if "weights" in doc:
        return Connection.diagonal(
            tuple(_scalar(w, path, "weights") for w in _list(doc, path, "weights")), forms
        )
    delta_poly = _scalar(_field(doc, path, "delta_poly"), path, "delta_poly")
    return Connection(forms, delta_poly, _rows(doc, path, "matrix"))


def load_table(path: str) -> PairingTable:
    """{alphabet, forms, table}: base integrals, one row per generator."""
    doc = _load_json(path)
    paths = _letters(doc, path, "alphabet")
    forms = _letters(doc, path, "forms")
    return PairingTable(paths, forms, _rows(doc, path, "table"))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (json payload, list of text lines)
# ---------------------------------------------------------------------------


def _cmd_hall(args):
    alphabet = Alphabet(
        _csv(args.letters) if args.letters else default_letters(args.m)
    )
    basis = hall_basis(alphabet, args.k)
    elements = [str(t) for t in basis.elements]
    payload = {
        "m": len(alphabet),
        "k": args.k,
        "count": len(elements),
        "witt": witt_number(len(alphabet), args.k),
        "elements": elements,
    }
    return payload, elements


def _cmd_expand(args):
    node = parse(_arg_text(args.expr), "poly")
    alphabet = _alphabet(args, [node])
    p = build_poly(node, alphabet)
    return {"value": str(p)}, [str(p)]


def _cmd_shuffle(args):
    na = parse(_arg_text(args.a), "poly")
    nb = parse(_arg_text(args.b), "poly")
    alphabet = _alphabet(args, [na, nb])
    p = build_poly(("#", na, nb), alphabet)  # with the size check of a # b
    return {"value": str(p)}, [str(p)]


def _cmd_pair(args):
    na = parse(_arg_text(args.a), "poly")
    nb = parse(_arg_text(args.b), "poly")
    alphabet = _alphabet(args, [na, nb])
    v = inner(build_poly(na, alphabet), build_poly(nb, alphabet))
    return {"value": scalar_str(v)}, [scalar_str(v)]


def _cmd_islie(args):
    node = parse(_arg_text(args.expr), "poly")
    alphabet = _alphabet(args, [node])
    ok = is_lie(build_poly(node, alphabet))
    return {"value": ok}, ["true" if ok else "false"]


def _cmd_project(args):
    node = parse(_arg_text(args.expr), "poly")
    alphabet = _alphabet(args, [node])
    lie, shuf = decompose(build_poly(node, alphabet))
    payload = {"lie": str(lie), "shuffle": str(shuf)}
    return payload, [f"lie: {lie}", f"shuffle: {shuf}"]


def _cmd_magnus(args):
    node = parse(_arg_text(args.gw), "gw")
    alphabet = _alphabet(args, [node])
    series = magnus(build_gw(node, alphabet), args.N)
    return {"degree": args.N, "value": str(series.poly)}, [str(series.poly)]


def _cmd_lcs(args):
    node = parse(_arg_text(args.gw), "gw")
    alphabet = _alphabet(args, [node])
    k = lcs_degree(build_gw(node, alphabet), args.N)
    if k is None:
        return {"bound": args.N, "value": None}, [f"exceeds {args.N}"]
    return {"bound": args.N, "value": k}, [str(k)]


def _cmd_eval(args):
    gw_node = parse(_arg_text(args.gw), "gw")
    poly_node = parse(_arg_text(args.poly), "poly")
    if args.model == "canonical":
        alphabet = _alphabet(args, [gw_node, poly_node])
        omega = build_poly(poly_node, alphabet)
        delta = build_gw(gw_node, alphabet)
        degree = max(omega.max_degree(), 1)
        v = evaluate(canonical_model(alphabet, degree), delta, omega)
    else:
        table = load_table(args.model)
        omega = build_poly(poly_node, table.forms)
        delta = build_gw(gw_node, table.paths)
        if omega.is_zero() or not omega.is_homogeneous():
            raise ValueError(
                "table models pair homogeneous words; got a mixed-degree polynomial"
            )
        v = Fraction(0)
        for word, c in omega.items():
            v = v + c * pair_graded(table, delta, word)
    return {"model": args.model, "value": scalar_str(v)}, [scalar_str(v)]


def _cmd_pk(args):
    p = pk_closed_form(_weights(args), args.k, args.part)
    return {"k": args.k, "part": args.part, "value": str(p)}, [str(p)]


def _cmd_ck(args):
    v = ck(_weights(args), args.k)
    return {"k": args.k, "value": scalar_str(v)}, [scalar_str(v)]


def _cmd_m5check(args):
    v = example_ex_m5()
    holds = not v
    payload = {"value": scalar_str(v), "identity_holds": holds}
    line = f"{scalar_str(v)} (identity holds)" if holds else f"{scalar_str(v)} (NONZERO)"
    return payload, [line]


def _cmd_integrand(args):
    if args.conn:
        conn = load_connection(args.conn)
    else:
        conn = Connection.diagonal((var("w1"), var("w2")))
    if args.omega:
        node = parse(_arg_text(args.omega), "poly")
        omega = build_poly(node, conn.forms)
    else:
        omega = NcPoly.zero(conn.forms)
        for i, name in enumerate(conn.forms.letters):
            omega = omega + NcPoly.letter(conn.forms, i).scale(var(f"al{i + 1}"))
    r = melnikov_integrand(conn, omega, args.k)
    return {"k": args.k, "value": str(r)}, [str(r)]


def _cmd_monodromy(args):
    parts = _csv(args.vec)
    if len(parts) != 6:
        raise ValueError("expected six comma-separated integers")
    g = tuple(int(s) for s in parts)
    op, k = reduce_to_alpha(g)
    target = tuple(Fraction(k) * c for c in wedge(ALPHA[0], ALPHA[1]))
    replay_ok = apply_operator(op, g) == target
    if not replay_ok:
        raise AssertionError("operator replay failed to land on k[a1,a2]")
    payload = {"op": str(op), "k": str(k), "replayed": True}
    return payload, [f"op: {op}", f"k: {k}"]


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_expr_flags(p):
    p.add_argument("--letters", help="comma-separated alphabet, overriding inference")
    p.add_argument("--vars", help="comma-separated scalar indeterminate names")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chenlie",
        description="Exact calculus in free Lie and shuffle algebras, "
        "iterated path integrals, and Melnikov functions.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--json", action="store_true", help="emit one line of JSON")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit one line of JSON",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("hall", help="Hall basis of the free Lie algebra")
    p.add_argument("-m", type=int, default=2, help="number of letters (default 2)")
    p.add_argument("-k", type=int, required=True, help="bracket degree")
    p.add_argument("--letters", help="explicit letter names")
    p.set_defaults(fn=_cmd_hall)

    p = add_parser("expand", help="expand brackets/shuffles to a word polynomial")
    p.add_argument("expr")
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_expand)

    p = add_parser("shuffle", help="shuffle product of two polynomials")
    p.add_argument("a")
    p.add_argument("b")
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_shuffle)

    p = add_parser("pair", help="word-basis inner product of two polynomials")
    p.add_argument("a")
    p.add_argument("b")
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_pair)

    p = add_parser("islie", help="Lie-element test (orthogonality to shuffles)")
    p.add_argument("expr")
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_islie)

    p = add_parser("project", help="split into Lie part + shuffle part")
    p.add_argument("expr")
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_project)

    p = add_parser("magnus", help="truncated exponential image of a group word")
    p.add_argument("gw")
    p.add_argument("-N", type=int, required=True, help="truncation degree")
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_magnus)

    p = add_parser("lcs", help="lower-central-series degree of a group word")
    p.add_argument("gw")
    p.add_argument(
        "-N", type=int, default=DEFAULT_LCS_BOUND,
        help=f"certification bound (default {DEFAULT_LCS_BOUND})",
    )
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_lcs)

    p = add_parser("eval", help="iterated integral of a polynomial along a loop")
    p.add_argument("gw")
    p.add_argument("poly")
    p.add_argument(
        "--model", default="canonical",
        help="'canonical' or a pairing-table JSON file",
    )
    _add_expr_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = add_parser("pk", help="closed-form alpha-block of the order-k integrand")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-i", "--part", type=int, default=1, help="copies of om1 (default 1)")
    p.add_argument("--weights", help="two rationals w1,w2 (default: symbolic)")
    p.set_defaults(fn=_cmd_pk)

    p = add_parser("ck", help="pairing of the order-k block with the nested bracket")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--weights", help="two rationals w1,w2 (default: symbolic)")
    p.set_defaults(fn=_cmd_ck)

    p = add_parser("m5check", help="degree-5 commutator vanishing identity")
    p.set_defaults(fn=_cmd_m5check)

    p = add_parser("integrand", help="order-k Melnikov integrand for a connection")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--conn", help="connection JSON file (default: diagonal w1,w2)")
    p.add_argument("--omega", help="degree-1 form combination (default: al_i om_i)")
    p.set_defaults(fn=_cmd_integrand)

    p = add_parser("monodromy", help="Picard-Lefschetz reductions")
    msub = p.add_subparsers(dest="action", required=True)
    pr = msub.add_parser(
        "reduce", parents=[shared],
        help="reduce a bracket class to a multiple of [a1,a2]",
    )
    pr.add_argument("vec", help="six integers m,c11,c12,c21,c22,n")
    pr.set_defaults(fn=_cmd_monodromy)

    return ap


def _unflag_expressions(ap: argparse.ArgumentParser, argv) -> list:
    """An expression or vector may start with a minus sign ("-x",
    "-1,0,2,0,0,3"), which argparse reads as an unknown option.  Each
    argument that starts with a dash and is no option of the (sub)command
    it follows, nor "-" (stdin) or "--", gets a leading space, which makes
    it positional; run takes the space off again."""
    parser, out = ap, []
    for a in argv:
        options = parser._option_string_actions
        if a.startswith("-") and a not in ("-", "--") and a[:2] not in options \
                and a.split("=")[0] not in options:
            a = " " + a
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction) and a in action.choices:
                parser = action.choices[a]
        out.append(a)
    return out


def run(argv) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(_unflag_expressions(ap, argv))
    for key, value in vars(args).items():
        if isinstance(value, str) and value.startswith(" -"):
            setattr(args, key, value[1:])
    try:
        payload, lines = args.fn(args)
    except (ParseError, ValueError, ZeroDivisionError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"schema": 1, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
