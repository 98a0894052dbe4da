import json
import os
import random
import re
import time
from pathlib import Path

import pytest

from eqschub.cli import main, parse_class_expr, parse_table
from eqschub.exactalg import EqschubError, ParseError, t
from eqschub.gkmgrass import EqClass, constant_class, projective_zeta, schubert_class
from eqschub.suites import run_suites
from eqschub.ytcomb import GrassmannianShape

from oracles import class_expr_by_descent

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    """Run a well-formed command line, which the option table parses
    without argparse."""
    assert parse_table(list(argv)) is not None
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- golden files

def test_lr_golden_gr12(capsys):
    code, out, _ = run_cli(capsys, "lr", "--n", "2", "--k", "1", "--a", "1", "--b", "1")
    assert code == 0
    assert out == (GOLDEN / "lr_gr12_1_1.json").read_text()


def test_lr_golden_gr24(capsys):
    code, out, _ = run_cli(capsys, "lr", "--n", "4", "--k", "2", "--a", "1", "--b", "1")
    assert code == 0
    assert out == (GOLDEN / "lr_gr24_1_1.json").read_text()


def test_schur_golden(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "2,1", "--k", "3", "--json")
    assert code == 0
    assert out == (GOLDEN / "schur_21_k3.json").read_text()


def test_class_golden(capsys):
    code, out, _ = run_cli(capsys, "class", "--n", "2", "--k", "1", "--shape", "1", "--json")
    assert code == 0
    assert out == (GOLDEN / "class_1_gr12.json").read_text()


def test_gkm_graph_golden(capsys):
    code, out, _ = run_cli(capsys, "gkm-graph", "--n", "4", "--k", "2", "--json")
    assert code == 0
    assert out == (GOLDEN / "gkm_graph_gr24.json").read_text()


# ----------------------------------------------------------------- commands

def test_schur_empty_shape(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "0", "--k", "3")
    assert code == 0
    assert out == "1\n"


def test_schur_restrict(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "1", "--k", "1",
                           "--restrict-to", "1", "--n", "2")
    assert code == 0
    assert out == "t2 - t1\n"
    # One restriction only, so the fixed-point bound does not apply:
    # Gr(8,16) has 12,870 points.
    code, out, _ = run_cli(capsys, "schur", "--shape", "1", "--k", "8",
                           "--restrict-to", "1", "--n", "16")
    assert code == 0
    assert out == "t9 - t8\n"


def test_schur_ordinary(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "1", "--k", "2", "--ordinary")
    assert code == 0
    assert out == "x2 + x1\n"


def test_schur_of_a_thousand_boxes(capsys):
    """One tableau of 1,000 boxes, more than the interpreter's recursion limit."""
    code, out, _ = run_cli(capsys, "schur", "--shape", "500,500", "--k", "2", "--ordinary")
    assert code == 0
    assert out == "x1^500*x2^500\n"


def test_integrate_four_lines(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--n", "4", "--k", "2", "--class", "s1^4")
    assert code == 0
    assert out == "2\n"


def test_integrate_zeta(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--n", "3", "--k", "1", "--class", "zeta^2")
    assert code == 0
    assert out == "1\n"


def test_mult_text_output(capsys):
    code, out, _ = run_cli(capsys, "mult", "--n", "4", "--k", "2", "--a", "1", "--b", "1")
    assert code == 0
    assert "positive: true" in out
    assert "1: t3 - t2" in out


def test_gkm_check_expression(capsys):
    code, out, _ = run_cli(capsys, "gkm-check", "--n", "4", "--k", "2",
                           "--class", "s1*s1 - 2*s2")
    assert code == 0
    assert out == "ok\n"


def test_gkm_check_json_violation(tmp_path, capsys):
    payload = {"n": 2, "k": 1, "restrictions": {"{1}": "1", "{2}": "0"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "gkm-check", "--n", "2", "--k", "1",
                           "--in", str(path), "--json")
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert data["violations"][0]["weight"] == "t2 - t1"


def test_kl_verify(capsys):
    code, out, _ = run_cli(capsys, "kl-verify", "--n", "4", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "cases": 6, "failures": []}


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "integrals")
    assert code == 0
    assert "[PASS] integrals" in out


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run_cli(capsys, "integrate", "--n", "4", "--k", "2",
                           "--class", "s1^4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "2\n"


# -------------------------------------------------------------- error paths

def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "class", "--n", "2", "--k", "1", "--shape", "3")
    assert code == 1
    assert "error" in err


def test_bad_partition_text(capsys):
    code, _, err = run_cli(capsys, "class", "--n", "4", "--k", "2", "--shape", "1,2")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code(capsys):
    argv = ["lr", "--n", "2", "--k", "1", "--a", "1"]
    assert parse_table(argv) is None
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err


def test_zeta_needs_projective_space(capsys):
    code, _, err = run_cli(capsys, "integrate", "--n", "4", "--k", "2", "--class", "zeta")
    assert code == 1
    assert "zeta" in err


def test_missing_class_file(capsys):
    code, _, err = run_cli(capsys, "gkm-check", "--n", "2", "--k", "1",
                           "--in", "/nonexistent/file.json")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("payload", [
    {"n": 4, "k": 2},
    [1, 2],
    {"n": 4, "k": 2, "restrictions": []},
    {"n": 4, "k": 2, "restrictions": {"{1,2}": 5}},
    {"n": 4, "k": 2, "restrictions": {"{1,2}": "t1 t2"}},
    {"n": 4, "k": 2, "restrictions": {"{1,2}": "x1"}},
    {"n": 4, "k": 2, "restrictions": {"{1,2}": "t1", "{3,4}": "u2 - t3"}},
    {"n": 4, "k": 2, "restrictions": {"{2,3}": "2*y1*t1"}},
    {"n": 4, "k": 2, "restrictions": {"1,2": "t1", "{1,2}": "t2"}},
    {"n": 4, "k": 2, "restrictions": {"{1,2}": "t9"}},
], ids=["missing-key", "top-level-list", "restrictions-list", "non-string-value",
        "juxtaposed-terms", "x-variable", "u-variable", "y-variable",
        "duplicate-subset", "t-index-beyond-n"])
def test_malformed_class_json(tmp_path, capsys, payload):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "gkm-check", "--n", "4", "--k", "2", "--in", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("eqschub: error: ")


def test_deeply_nested_class_json(tmp_path, capsys):
    path = tmp_path / "class.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "gkm-check", "--n", "4", "--k", "2", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err == "eqschub: error: class file nests too deeply\n"


_LONG_KEY = "{" + "1" * 5000 + ",2}"


@pytest.mark.parametrize("restrictions, error", [
    ({"{a,b}": "1"}, "class JSON key '{a,b}' is not a pivot subset of Gr(2,4)"),
    ({"{2,1}": "1"}, "class JSON key '{2,1}' is not a pivot subset of Gr(2,4)"),
    ({"{1}": "1"}, "class JSON key '{1}' is not a pivot subset of Gr(2,4)"),
    ({"{1,5}": "1"}, "class JSON key '{1,5}' is not a pivot subset of Gr(2,4)"),
    ({"{0,1}": "1"}, "class JSON key '{0,1}' is not a pivot subset of Gr(2,4)"),
    ({_LONG_KEY: "1"}, f"class JSON key {_LONG_KEY!r} is not a pivot subset of Gr(2,4)"),
    ({"{1,2}": "1" * 5000}, "digit run too long in polynomial text at '111111111111'"),
], ids=["not-digits", "decreasing", "wrong-size", "out-of-range", "zero", "key-digit-run",
        "polynomial-digit-run"])
def test_class_json_refusal_text(tmp_path, capsys, restrictions, error):
    """Each fault ends in a ParseError that names the input, not in the text
    of the ValueError that int(), PivotSubset or EqClass raised."""
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"n": 4, "k": 2, "restrictions": restrictions}))
    code, out, err = run_cli(capsys, "gkm-check", "--n", "4", "--k", "2", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err == f"eqschub: error: {error}\n"


# --------------------------------------------------------------- size limits

@pytest.mark.parametrize("argv, error", [
    (("class", "--n", "40", "--k", "20", "--shape", "1"),
     "Gr(20,40) needs t40; at most 32 t variables exist"),
    (("gkm-graph", "--n", "33", "--k", "1"), "Gr(1,33) needs t33; at most 32 t variables exist"),
    (("integrate", "--n", "16", "--k", "8", "--class", "s1"),
     "Gr(8,16) has 12870 fixed points; at most 10000 are accepted"),
    (("schur", "--shape", "1", "--k", "2", "--n", "40", "--restrict-to", "1"),
     "Gr(2,40) needs t40; at most 32 t variables exist"),
    (("integrate", "--n", "4", "--k", "2", "--class", "2^100000000*s1"),
     "exponent 100000000 exceeds 65535"),
    (("integrate", "--n", "4", "--k", "2", "--class", "(" * 5000 + "s1" + ")" * 5000),
     "class expression nests too deeply"),
    (("schur", "--shape", "33", "--k", "1"), "variable u33: indices go up to 32"),
    (("integrate", "--n", "4", "--k", "2", "--class", "s1^120 )"),
     "trailing tokens in class expression"),
    (("integrate", "--n", "4", "--k", "2", "--class", "s1^120 + zeta"),
     "zeta is only defined on Gr(1, n)"),
    (("integrate", "--n", "4", "--k", "2", "--class", "1" * 5000 + "*s1"),
     "digit run too long in class expression at '111111111111'"),
    (("integrate", "--n", "4", "--k", "2", "--class", "s1 + s" + "1" * 5000),
     "digit run too long in class expression at '111111111111'"),
    (("class", "--n", "4", "--k", "2", "--shape", "1" * 5000),
     "digit run too long in partition at '111111111111'"),
    (("lr", "--n", "4", "--k", "2", "--a", "1" * 5000, "--b", "1"),
     "digit run too long in partition at '111111111111'"),
    (("schur", "--shape", "1", "--k", "2", "--n", "4", "--restrict-to", "2," + "1" * 5000),
     "digit run too long in partition at '111111111111'"),
    (("class", "--n", "4", "--k", "2", "--shape", "1,x" + "1" * 5000),
     "bad partition '1,x111111111'; expected digits joined by commas"),
], ids=["gr-20-40", "n-above-32", "too-many-points", "schur-restrict", "huge-exponent",
        "deep-nesting", "schur-long-row", "power-then-trailing", "power-then-zeta",
        "digit-run", "s-token-digit-run", "class-shape-digit-run", "lr-digit-run",
        "schur-restrict-to-digit-run", "long-bad-partition"])
def test_cli_refuses_oversized_input_quickly(capsys, argv, error):
    """C(40, 20) is about 1.4e11 points, C(16, 8) = 12,870 is above 10,000,
    t33 does not exist, the power would loop 10^8 times, the parentheses
    nest deeper than the interpreter's recursion limit, the one row of 33
    boxes would sum 2^33 tableau products before it reached u33, two
    expressions would build s1^120 before their fault, the integer or the
    partition part has more digits than int() reads, and the bad partition
    is quoted in 12 characters: each is refused before any class or tableau
    is built."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 1
    assert out == ""
    assert err == f"eqschub: error: {error}\n"


@pytest.mark.parametrize("text", ["1,,2", "1,x"])
def test_bad_partition_quotes_short_text_whole(capsys, text):
    code, out, err = run_cli(capsys, "class", "--n", "4", "--k", "2", "--shape", text)
    assert code == 1
    assert out == ""
    assert err == f"eqschub: error: bad partition {text!r}; expected digits joined by commas\n"


def test_cli_accepts_gr48(capsys):
    code, out, _ = run_cli(capsys, "class", "--n", "8", "--k", "4", "--shape", "2,1", "--json")
    assert code == 0
    assert len(json.loads(out)["restrictions"]) == 70


def test_integrate_high_power_on_projective_line(capsys):
    """s1^300 on Gr(1,2) reaches t exponent 300, above any 8-bit field."""
    code, out, _ = run_cli(capsys, "integrate", "--n", "2", "--k", "1", "--class", "s1^300")
    assert code == 0
    assert out.startswith("t2^299 - 299*t1*t2^298 + 44551*t1^2*t2^297 - ")
    assert out.rstrip().endswith(" - t1^299")


# ---------------------------------------------------------- expression parser

def test_expression_parser_values():
    gr24 = GrassmannianShape(4, 2)
    assert parse_class_expr("s1^2", gr24) == schubert_class((1,), gr24) ** 2
    assert parse_class_expr("s2,1", gr24) == schubert_class((2, 1), gr24)
    combo = parse_class_expr("2*s1*s1 - s2 + 3", gr24)
    expected = (
        schubert_class((1,), gr24) * schubert_class((1,), gr24) * 2
        - schubert_class((2,), gr24)
        + constant_class(gr24, 3)
    )
    assert combo == expected
    assert parse_class_expr("(s1 + s2)^2", gr24) == (
        schubert_class((1,), gr24) + schubert_class((2,), gr24)
    ) ** 2
    gr13 = GrassmannianShape(3, 1)
    assert parse_class_expr("zeta", gr13) == projective_zeta(3)
    assert parse_class_expr("-s1", gr24) == -schubert_class((1,), gr24)


def test_expression_parser_errors():
    gr24 = GrassmannianShape(4, 2)
    for text in ("", "s1 +", "s1 ^ s1", "(s1", "s1 @ s2", "s1 s2", "s1^65536"):
        with pytest.raises(ParseError):
            parse_class_expr(text, gr24)


_EXPR_PIECES = (
    "s1", "s2", "s1,1", "s2,1", "s3", "s0", "s1,2", "s1,0", "zeta", "0", "1", "2", "3", "7",
    "65536", "+", "-", "*", "^", "(", ")", " ", "\t", "$", "s",
)


def _expr_outcome(read, text, shape):
    try:
        c = read(text, shape)
    except (EqschubError, ValueError) as err:
        return type(err), str(err)
    return c, c._gkm


def test_expression_reader_matches_descent_reader():
    """The program reader gives the descent reader's value and mark, or its
    exception type and text.  Texts with two powers, or a power above 12
    that the bound does not refuse, are skipped to keep the builds short."""
    rng = random.Random(21)
    shapes = (GrassmannianShape(4, 2), GrassmannianShape(3, 1), GrassmannianShape(5, 2))
    compared = accepted = 0
    while compared < 20_000:
        text = "".join(rng.choice(_EXPR_PIECES) for _ in range(rng.randint(0, 11)))
        powers = [int(e) for e in re.findall(r"\^\s*(\d+)", text)]
        if text.count("^") > 1 or any(12 < e <= 65535 for e in powers):
            continue
        shape = rng.choice(shapes)
        expected = _expr_outcome(class_expr_by_descent, text, shape)
        assert _expr_outcome(parse_class_expr, text, shape) == expected, (text, shape)
        compared += 1
        accepted += isinstance(expected[0], EqClass)
    assert accepted > 1000


# -------------------------------------------------------------- determinism

def test_suite_reports_identical_across_runs():
    one = run_suites(("duality", "integrals"))
    two = run_suites(("duality", "integrals"))
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_verify_fast_suites_golden():
    names = ("interpolation", "positivity", "duality", "kl", "integrals")
    text = json.dumps(run_suites(names), sort_keys=True, separators=(",", ":")) + "\n"
    assert text == (GOLDEN / "verify_fast.json").read_text()
