"""Command-line interface: text and JSON output for every subcommand,
exit codes, stdin input, and the JSON model/connection/table loaders."""

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chenlie import ncalg
from chenlie.cli import run
from chenlie.ncalg import Alphabet, NcPoly
from chenlie.parser import ParseError, _tokenize, collect_idents, parse


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ok(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return out


def as_json(capsys, *argv):
    out = ok(capsys, "--json", *argv)
    lines = out.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == 1
    return doc


# -------------------------------------------------------------- subcommands

def test_hall_text_and_json(capsys):
    out = ok(capsys, "hall", "-k", "3")
    assert out.splitlines() == ["[x,[x,y]]", "[y,[x,y]]"]
    doc = as_json(capsys, "hall", "-k", "3")
    assert doc == {"command": "hall", "count": 2,
                   "elements": ["[x,[x,y]]", "[y,[x,y]]"],
                   "k": 3, "m": 2, "schema": 1, "witt": 2}
    doc = as_json(capsys, "hall", "-m", "3", "-k", "5")
    assert doc["count"] == 48 and doc["witt"] == 48


@pytest.mark.parametrize("m", ["-1", "0"])
def test_hall_needs_a_letter(capsys, m):
    code, out, err = invoke(capsys, "hall", "-m", m, "-k", "2")
    assert (code, out, err) == (1, "", "error: alphabet must have at least one letter\n")


def test_expand(capsys):
    assert ok(capsys, "expand", "[x,y]").strip() == "x y - y x"
    assert ok(capsys, "expand", "--letters", "a,b", "[a,b]").strip() \
        == "a b - b a"
    doc = as_json(capsys, "expand", "[x,[x,y]]")
    assert doc["value"] == "x^2 y - 2*x y x + y x^2"


def test_shuffle(capsys):
    assert ok(capsys, "shuffle", "x", "y").strip() == "x y + y x"
    assert ok(capsys, "shuffle", "x", "x").strip() == "2*x^2"


def test_pair_golden(capsys):
    out = ok(capsys, "--json", "pair", "[y,[x,z]]", "[z,[x,y]]")
    assert out == '{"command": "pair", "schema": 1, "value": "2"}\n'


def test_islie(capsys):
    assert ok(capsys, "islie", "[x,y]").strip() == "true"
    assert ok(capsys, "islie", "x # y").strip() == "false"
    assert as_json(capsys, "islie", "[x,y]")["value"] is True


def test_project(capsys):
    out = ok(capsys, "project", "x y")
    assert out.splitlines() == ["lie: x y/2 - y x/2",
                                "shuffle: x y/2 + y x/2"]
    doc = as_json(capsys, "project", "x y")
    assert doc["lie"] == "x y/2 - y x/2"
    assert doc["shuffle"] == "x y/2 + y x/2"


def test_magnus(capsys):
    assert ok(capsys, "magnus", "-N", "2", "(x,y)").strip() \
        == "1 + x y - y x"
    doc = as_json(capsys, "magnus", "-N", "1", "x")
    assert doc["value"] == "1 + x"


def test_lcs(capsys):
    assert ok(capsys, "lcs", "((x,y),x)").strip() == "3"
    assert as_json(capsys, "lcs", "(x,y)")["value"] == 2
    # bound exceeded is reported, not guessed
    out = ok(capsys, "lcs", "-N", "2", "((x,y),x)")
    assert "exceeds 2" in out
    assert as_json(capsys, "lcs", "-N", "2", "((x,y),x)")["value"] is None


def test_eval(capsys):
    assert ok(capsys, "eval", "(x,y)", "x y").strip() == "1"
    assert ok(capsys, "eval", "(x,y)", "x").strip() == "0"
    doc = as_json(capsys, "eval", "--model", "canonical", "x", "x x")
    assert doc["value"] == "1/2"


def test_pk(capsys):
    assert ok(capsys, "pk", "-k", "2").strip() == "w2*om1 om2 + w1*om2 om1"
    doc = as_json(capsys, "pk", "-k", "3", "-i", "3")
    assert "om1" in doc["value"]
    num = ok(capsys, "pk", "-k", "2", "--weights", "1/3,1/2")
    assert num.strip() == "x" or "om" in num  # numeric weights substitute
    assert ok(capsys, "pk", "-k", "2", "--weights", "1/3,1/2").strip() \
        == "om1 om2/2 + om2 om1/3"


def test_ck_golden(capsys):
    out = ok(capsys, "--json", "ck", "-k", "2")
    assert out == '{"command": "ck", "k": 2, "schema": 1, "value": "w2 - w1"}\n'
    assert ok(capsys, "ck", "-k", "3").strip() == "w2 - w1 - w1*w2 + w1^2"
    assert ok(capsys, "ck", "-k", "4", "--weights", "1/3,1/2").strip() != "0"


def test_m5check_golden(capsys):
    out = ok(capsys, "--json", "m5check")
    assert out == ('{"command": "m5check", "identity_holds": true, '
                   '"schema": 1, "value": "0"}\n')
    assert "identity holds" in ok(capsys, "m5check")


def test_integrand(capsys):
    out = ok(capsys, "integrand", "-k", "1")
    assert "om1" in out and "om2" in out
    doc = as_json(capsys, "integrand", "-k", "2")
    assert "w1/t" in doc["value"]


def test_monodromy_reduce(capsys):
    out = ok(capsys, "monodromy", "reduce", "0,0,0,0,0,3")
    assert out.splitlines() == ["op: 1", "k: 3"]
    doc = as_json(capsys, "monodromy", "reduce", "1,0,0,0,2,0")
    assert doc["replayed"] is True and doc["k"] == "2"
    assert "h3" in doc["op"]


def test_monodromy_vector_may_start_with_a_minus_sign(capsys):
    plain = ok(capsys, "monodromy", "reduce", "-1,0,2,0,0,3")
    assert plain == ok(capsys, "monodromy", "reduce", "--", "-1,0,2,0,0,3")
    assert plain.splitlines()[1] == "k: 2"
    doc = as_json(capsys, "monodromy", "reduce", "-1,0,-2,0,0,3")
    assert doc == as_json(capsys, "monodromy", "reduce", "--", "-1,0,-2,0,0,3")


def test_expressions_may_start_with_a_minus_sign(capsys):
    assert ok(capsys, "expand", "-x") == "-x\n"
    assert ok(capsys, "shuffle", "-x", "-y") == "x y + y x\n"
    assert ok(capsys, "--json", "pair", "-2x", "x") == ok(capsys, "--json", "pair", "--", "-2x", "x")
    assert ok(capsys, "magnus", "-N", "1", "x") == ok(capsys, "magnus", "-N1", "x")
    code, out, err = invoke(capsys, "expand", "--x")
    assert code == 1 and err == "error: line 1, column 2: expected an expression, found '-'\n"


def test_json_flag_position_is_flexible(capsys):
    before = ok(capsys, "--json", "ck", "-k", "2")
    after = ok(capsys, "ck", "-k", "2", "--json")
    assert before == after


# ------------------------------------------------------------------ errors

def test_parse_error_exit_code(capsys):
    code, out, err = invoke(capsys, "pair", "x +", "y")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "column 4" in err


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "project", "1 + x")
    assert code == 1 and "homogeneous" in err
    code, _, err = invoke(capsys, "monodromy", "reduce", "0,0,0,0,0,0")
    assert code == 1


def test_bad_weights_exit_code(capsys):
    code, _, err = invoke(capsys, "ck", "-k", "2", "--weights", "1/3")
    assert code == 1 and err.startswith("error:")


def test_deep_nesting_is_a_one_line_error(capsys):
    for text in ("(" * 400 + "x" + ")" * 400, "[x," * 699 + "y" + "]" * 699):
        code, out, err = invoke(capsys, "expand", text)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "nesting" in err


def test_oversized_group_words_are_a_one_line_error(capsys):
    nested = "y"
    for _ in range(16):
        nested = f"(x,{nested})"
    for text in (nested, "x^1000000000"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "lcs", text)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "100000" in err


def _nested_commutator(depth):
    text = "y"
    for _ in range(depth):
        text = f"(x,{text})"
    return text


def test_long_expansions_are_a_one_line_error(capsys):
    # 32794 letters at the default bound 8; 138 letters to degree 12
    for argv in (["lcs", _nested_commutator(14)],
                 ["magnus", "-N", "12", _nested_commutator(6)]):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "over the limit of 600000" in err


def test_expansions_at_the_work_limit_are_quick(capsys):
    # 1170 letters over x, y to degree 8: 597 870 steps; x^100000 to
    # degree 5: 600 000 steps, each at most MAX_MAGNUS_WORK
    r = random.Random(8)
    entries = []
    while len(entries) < 1170:
        g = (r.choice("xy"), r.choice(("", "^-1")))
        if not entries or entries[-1][0] != g[0] or entries[-1][1] == g[1]:
            entries.append(g)
    word = " ".join(a + e for a, e in entries)
    start = time.perf_counter()
    out = ok(capsys, "magnus", "-N", "8", word)
    assert time.perf_counter() - start < 1
    assert out.count(" ") > 500  # 511 words of length <= 8
    start = time.perf_counter()
    out = ok(capsys, "magnus", "-N", "5", "x^100000")
    assert time.perf_counter() - start < 1
    x = Alphabet(("x",))
    assert out == f"{NcPoly(x, {(0,) * j: Fraction(10 ** (5 * j), factorial(j)) for j in range(6)})}\n"


def test_the_largest_accepted_shuffle_is_quick(capsys):
    """x^706 # y is the largest shuffle of its shape that the polynomial
    size limit accepts: 707 words of 707 letters."""
    ncalg._SHUFFLE_CACHE.pop(((0,) * 706, (1,)), None)
    start = time.perf_counter()
    out = ok(capsys, "expand", "x^706 # y")
    assert time.perf_counter() - start < 1
    assert out.startswith("x^706 y + x^705 y x + ") and out.endswith(" + y x^706\n")
    assert out.count(" + ") == 706


def test_magnus_past_the_digit_limit_is_a_one_line_error(capsys):
    """The coefficient of x^l in exp(x) is 1/l!, which has more than 4300
    digits from l = 1559 on."""
    for n, digits in ((2000, 5736), (20000, 77338)):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "magnus", "-N", str(n), "x")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == (f"error: expanding a 1-letter group word to degree {n} "
                       f"could reach {digits} digits in a coefficient, over the "
                       "limit of 4300\n")
    out = ok(capsys, "magnus", "-N", "1500", "x")
    assert out.endswith(f" + x^1500/{factorial(1500)}\n")


def test_lcs_of_a_deep_commutator(capsys):
    # 526 letters, lcs degree 9
    start = time.perf_counter()
    assert ok(capsys, "lcs", "-N", "9", _nested_commutator(8)) == "9\n"
    assert time.perf_counter() - start < 1
    assert ok(capsys, "lcs", _nested_commutator(8)) == "exceeds 8\n"


def test_one_letter_canonical_model_of_high_degree(capsys):
    start = time.perf_counter()
    assert ok(capsys, "eval", "x", "x^200") == f"1/{factorial(200)}\n"
    assert time.perf_counter() - start < 5


def test_oversized_evaluations_are_a_one_line_error(capsys):
    """x^1000 along x visits 501 501 slot pairs and a 66 000-letter loop
    against x x visits 396 000, both over the limit of 160 000; the
    canonical model of degree 1800 needs 1/1800!, which has 5080 digits."""
    for argv, text in (
        (["eval", "x", "x^1000"], "could visit 501501 slot pairs, over the limit of 160000"),
        (["eval", "x^66000", "x x"], "could visit 396000 slot pairs, over the limit of 160000"),
        (["eval", "x", "x^1800"], "could reach 5080 digits in a coefficient, over the limit of 4300"),
    ):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.endswith(f"{text}\n")
        assert len(err.splitlines()) == 1


def test_one_letter_hall_sets_skip_their_empty_levels(capsys):
    """On one letter every degree past 1 is empty, so islie of a high power
    answers, or is refused by the Hall limit, without walking the levels."""
    start = time.perf_counter()
    assert ok(capsys, "islie", "x^4301") == "false\n"
    code, out, err = invoke(capsys, "islie", "x^20000")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == ("error: the Hall set on 1 letters up to degree 20000 has at "
                   "least 5001 elements (empty degrees count one), over the "
                   "limit of 5000\n")


def test_division_by_zero_is_named(capsys):
    for text in ("x/0", "x/(t - t)", "2 x/(w1 - w1)"):
        code, out, err = invoke(capsys, "expand", text)
        assert code == 1 and out == ""
        assert err == "error: scalar division by zero\n"


def test_negative_powers_are_a_parse_error(capsys):
    """An unsigned int follows ^, so no polynomial text has a negative power,
    of a letter or of a scalar."""
    for text in ("x^-1", "2^-1"):
        code, out, err = invoke(capsys, "expand", text)
        assert code == 1 and out == ""
        assert err == "error: line 1, column 3: expected 'int', found '-'\n"


def test_oversized_polynomials_are_a_one_line_error(capsys):
    # x^600 # x^600 has one word, but its shuffle table has 601^2 entries
    for argv in (["expand", "x^1000000000"], ["expand", "(x+y)^40"],
                 ["expand", "x^600 # x^600"], ["shuffle", "x^600", "x^600"],
                 ["shuffle", "x^20", "y^20"]):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "1000000" in err
    assert ok(capsys, "expand", "x^100000") == "x^100000\n"


def test_oversized_powers_are_a_one_line_error(capsys):
    for text in ("2^20000", "(2*a)^20000", "2^1000000000"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "expand", text)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "digits" in err and "4300" in err
    q = Fraction(2, 3) ** 5000
    assert ok(capsys, "expand", "(2/3)^5000 x") == f"{q.numerator}*x/{q.denominator}\n"


def test_oversized_products_are_a_one_line_error(capsys):
    code, out, err = invoke(capsys, "expand", "2^4000*2^4000*2^4000*2^4000")
    assert code == 1 and out == ""
    assert err == ("error: product could reach 4817 digits in a coefficient, "
                   "over the limit of 4300\n")
    assert ok(capsys, "expand", "2^4000*2^4000*2^4000") == f"{2 ** 12000}\n"


def test_oversized_lie_requests_are_a_one_line_error(capsys):
    """Refused before any Hall tree (the first four) or Gram block (the
    last, multidegree (6, 6) with 75 Hall elements) is built."""
    for argv in (("islie", "x^15*y^15"), ("islie", "x^29*y"), ("project", "x^29*y"),
                 ("hall", "-k", "40"), ("project", "x^6*y^6")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "over the" in err


def test_zero_weight_denominator_is_named(capsys):
    code, _, err = invoke(capsys, "ck", "-k", "3", "--weights", "1/0,2")
    assert code == 1
    assert err == "error: --weights: zero denominator in '1/0'\n"


# ------------------------------------------------------------------- stdin

def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[x,y]"))
    assert ok(capsys, "expand", "-").strip() == "x y - y x"


# ------------------------------------------------------------------ loaders

def test_eval_with_table_file(capsys, tmp_path):
    table = {
        "alphabet": ["a", "b"],
        "forms": ["f1", "f2"],
        "table": [["v11", "v12"], ["v21", "v22"]],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    out = ok(capsys, "eval", "--model", str(path), "(a,b)", "f1 f2")
    assert out.strip() == "-v12*v21 + v11*v22"


def test_integrand_with_connection_file(capsys, tmp_path):
    conn = {"alphabet": ["om1", "om2"], "weights": ["1/3", "1/2"]}
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(conn))
    out = ok(capsys, "integrand", "-k", "2", "--conn", str(path),
             "--omega", "om1 + om2")
    assert "/t" in out
    full = {
        "alphabet": ["om1", "om2"],
        "delta_poly": "t",
        "matrix": [["1/3", "0"], ["0", "1/2"]],
    }
    path2 = tmp_path / "conn2.json"
    path2.write_text(json.dumps(full))
    out2 = ok(capsys, "integrand", "-k", "2", "--conn", str(path2),
              "--omega", "om1 + om2")
    assert out2 == out


@pytest.mark.parametrize("field", ["alphabet", "forms"])
def test_table_letters_must_be_a_list_of_strings(capsys, tmp_path, field):
    table = {"alphabet": ["a", "b"], "forms": ["f1", "f2"],
             "table": [["1", "2"], ["3", "4"]]}
    for bad in ("ab", ["a", 2]):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({**table, field: bad}))
        code, out, err = invoke(capsys, "eval", "--model", str(path),
                                "(a,b)", "f1 f2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and repr(field) in err


def test_connection_fields_are_validated(capsys, tmp_path):
    base = {"alphabet": ["om1", "om2"], "delta_poly": "t",
            "matrix": [["1", "0"], ["0", "2"]]}
    path = tmp_path / "conn.json"
    for missing in ("delta_poly", "matrix"):
        path.write_text(json.dumps({k: v for k, v in base.items() if k != missing}))
        code, _, err = invoke(capsys, "integrand", "-k", "2", "--conn", str(path))
        assert code == 1
        assert err.startswith("error:") and f"missing field {missing!r}" in err
    path.write_text(json.dumps({**base, "alphabet": "ab"}))
    code, _, err = invoke(capsys, "integrand", "-k", "2", "--conn", str(path))
    assert code == 1 and "'alphabet' must be a JSON list" in err


def _models(entry):
    """One valid model document per field, with ``entry`` in that field."""
    conn = {"alphabet": ["om1", "om2"], "delta_poly": "t", "matrix": [["1", 0], [0, 2]]}
    return {
        "weights": {"alphabet": ["om1", "om2"], "weights": [entry, 1]},
        "matrix": {**conn, "matrix": [["1", 0], [0, entry]]},
        "delta_poly": {**conn, "delta_poly": entry},
        "table": {"alphabet": ["a", "b"], "forms": ["f1", "f2"],
                  "table": [["1", 2], [entry, "4"]]},
    }


@pytest.mark.parametrize("bad", [True, None, 0.5, [1, 2], {"a": 1}],
                         ids=["true", "null", "0.5", "list", "object"])
@pytest.mark.parametrize("field", ["weights", "matrix", "table", "delta_poly"])
def test_scalar_entries_must_be_integers_or_strings(capsys, tmp_path, field, bad):
    """A JSON scalar entry is an integer or the text of an expression; any
    other JSON value is refused, not read through its Python str()."""
    path = tmp_path / "model.json"
    argv = (["eval", "--model", str(path), "(a,b)", "f1 f2"] if field == "table"
            else ["integrand", "-k", "2", "--conn", str(path)])
    path.write_text(json.dumps(_models(3)[field]))
    ok(capsys, *argv)
    path.write_text(json.dumps(_models(bad)[field]))
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: field {field!r} entries must be integers or strings\n"


def test_missing_file_is_reported(capsys):
    code, _, err = invoke(capsys, "eval", "--model", "/nonexistent.json",
                          "x", "x")
    assert code == 1 and err.startswith("error:")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


# ------------------------------------------------------------------- fuzzer

_INTS = st.sampled_from(["0", "1", "2", "3", "7", "12", "40", "300", "20000",
                         "1000000000"])
_IDENTS = st.sampled_from(["x", "y", "z", "t", "a", "w1"])
# "--" is the command line's end of options, never an expression.
_NOISE = st.text(alphabet="xyt12^-()[],#+*/ ", max_size=10).filter(lambda s: s != "--")


def _binary(children, fmt):
    return st.tuples(children, children).map(lambda ab: fmt.format(*ab))


# Polynomial and group-word texts from the grammar in chenlie.parser,
# malformed ones among them.
_POLYS = st.one_of(_NOISE, st.recursive(
    st.one_of(_IDENTS, _INTS),
    lambda c: st.one_of(
        _binary(c, "{} + {}"), _binary(c, "{} - {}"), _binary(c, "{}*{}"),
        _binary(c, "{} {}"), _binary(c, "{}/{}"), _binary(c, "{} # {}"),
        _binary(c, "[{},{}]"), c.map("({})".format), c.map("-{}".format),
        st.tuples(c, _INTS).map(lambda a: f"({a[0]})^{a[1]}"),
    ),
    max_leaves=6,
))
_GWS = st.one_of(_NOISE, st.recursive(
    st.one_of(_IDENTS, st.just("1")),
    lambda c: st.one_of(
        _binary(c, "{} {}"), _binary(c, "({},{})"), c.map("({})".format),
        st.tuples(c, st.sampled_from(["", "-"]), _INTS).map(
            lambda a: f"({a[0]})^{a[1]}{a[2]}"),
    ),
    max_leaves=6,
))
_DEGREES = st.sampled_from(["-1", "0", "1", "2", "3", "8", "30", "1000000000"])
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["expand", "islie", "project"]), _POLYS),
    st.tuples(st.sampled_from(["shuffle", "pair"]), _POLYS, _POLYS),
    st.tuples(st.sampled_from(["magnus", "lcs"]), st.just("-N"), _DEGREES, _GWS),
    st.tuples(st.just("eval"), _GWS, _POLYS),
)


@settings(max_examples=150, deadline=None)
@given(_COMMANDS, st.booleans())
def test_every_expression_ends_in_a_result_or_one_error_line(argv, as_json):
    argv = ["--json", *argv] if as_json else list(argv)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO("x y")):
        code = run(argv)
    assert time.perf_counter() - start < 2
    if code != 0:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_POLYS, st.just("poly")), st.tuples(_GWS, st.just("gw"))))
def test_collect_idents_finds_every_identifier_token(text_kind):
    """Over the fuzzer's texts that parse, the one tree walk of both grammars
    names exactly the identifier tokens of the text."""
    text, kind = text_kind
    try:
        node = parse(text, kind)
    except ParseError:
        return
    assert collect_idents(node) == {tok[1] for tok in _tokenize(text) if tok[0] == "ident"}
