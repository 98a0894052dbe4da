import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from eqschub.cli import main, parse_table
from eqschub.exactalg import EqschubError, ParseError, t
from eqschub.gkmgrass import (
    EqClass,
    _class_program,
    constant_class,
    integrate,
    parse_class_expr,
    projective_zeta,
    schubert_class,
)
from eqschub.suites import run_suites
from eqschub.ytcomb import GrassmannianShape

from oracles import class_expr_by_descent, integral_at_point, value_at

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


def test_lr_golden_gr48(capsys):
    # Captured from the former route, expand_in_basis of the product class,
    # which took about 5 s; the Chevalley recursion must print the same bytes.
    code, out, _ = run_cli(capsys, "lr", "--n", "8", "--k", "4", "--a", "3,2,1", "--b", "3,2,1")
    assert code == 0
    assert out == (GOLDEN / "lr_gr48_321_321.json").read_text()


def test_lr_partition_outside_the_box_is_one_error_line(capsys):
    for argv in (["lr", "--n", "5", "--k", "2", "--a", "1,1,1", "--b", "1"],
                 ["mult", "--n", "4", "--k", "2", "--a", "1", "--b", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("eqschub: error:"), err


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
    # One tableau for any k, counted without a factor per pair of rows.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "schur", "--shape", "0", "--k", "100000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("argv", [
    ("--shape", "1,1", "--k", "1"),
    ("--shape", "1,1", "--k", "1", "--ordinary"),
    ("--shape", "1", "--k", "0"),
    ("--shape", "40,1", "--k", "1"),
])
def test_schur_refuses_more_rows_than_k(capsys, argv):
    """The row count is checked before the indices and the size bound."""
    code, out, err = run_cli(capsys, "schur", *argv)
    assert code == 1
    assert out == ""
    assert err == f"eqschub: error: {argv[1]} has more than {argv[3]} rows\n"


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


@pytest.mark.parametrize("argv, error", [
    (("--shape", "70000", "--k", "1", "--ordinary"), "exponent 65536 of x1 exceeds 65535"),
    (("--shape", "70000", "--k", "1"), "variable u70000: indices go up to 32"),
])
def test_schur_row_past_the_exponent_bound(capsys, argv, error):
    """One tableau of 70,000 boxes: x1 reaches exponent 65,536 at its
    65,536th box, the text a generic product raised; the double form is
    refused first by the index of its last u variable."""
    code, out, err = run_cli(capsys, "schur", *argv)
    assert code == 1
    assert out == ""
    assert err == f"eqschub: error: {error}\n"


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
    ({"{1,2}": "0", "{1, 2}": "t1"}, "class JSON names the subset {1,2} twice"),
], ids=["not-digits", "decreasing", "wrong-size", "out-of-range", "zero", "key-digit-run",
        "polynomial-digit-run", "zero-named-twice"])
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
    (("schur", "--shape", "30", "--k", "1"),
     "the tableau sum may form 1073741824 terms; at most 1000000 terms are accepted"),
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
    (("integrate", "--n", "4", "--k", "2", "--class", "s1^60000"),
     "the integral may reach degree 59996 and 539946001649985000 terms; "
     "at most 1000000 terms are accepted"),
    (("gkm-check", "--n", "4", "--k", "2", "--class", "s1^60000"),
     "the class may reach degree 60000 and 540090005250125001 terms; "
     "at most 1000000 terms are accepted"),
    (("gkm-check", "--n", "4", "--k", "2", "--class", "0*s1^60000"),
     "the class may reach degree 60000 and 540090005250125001 terms; "
     "at most 1000000 terms are accepted"),
], ids=["gr-20-40", "n-above-32", "too-many-points", "schur-restrict", "huge-exponent",
        "deep-nesting", "schur-long-row", "schur-many-terms", "power-then-trailing",
        "power-then-zeta", "digit-run", "s-token-digit-run", "class-shape-digit-run",
        "lr-digit-run", "schur-restrict-to-digit-run", "long-bad-partition", "huge-integral",
        "huge-class", "zero-times-huge-class"])
def test_cli_refuses_oversized_input_quickly(capsys, argv, error):
    """C(40, 20) is about 1.4e11 points, C(16, 8) = 12,870 is above 10,000,
    t33 does not exist, the power would loop 10^8 times, the parentheses
    nest deeper than the interpreter's recursion limit, the one row of 33
    boxes would sum 2^33 tableau products before it reached u33, the row of
    30 would print 2^30 terms, two expressions would build s1^120 before
    their fault, the integer or the partition part has more digits than
    int() reads, the bad partition is quoted in 12 characters, the integral
    of s1^60000 on Gr(2,4) has degree up to 60000 - 4 in t1..t4, and
    `gkm-check` would build s1^60000, even to multiply it by 0: each is
    refused before any class or tableau is built.  The 10 s limit is
    enforced during the call by an interval timer, so a refusal that hangs
    fails instead of stalling the run; pytest.fail raises past main's
    handlers of domain errors."""

    def hung(signum, frame):
        pytest.fail(f"{argv} still running after 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
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


# --------------------------------------------------- integer-point integrals

def _by_points(text, shape):
    """The integral of the class expression by the integer-point route,
    whichever route `integrate --class` would take."""
    from eqschub.gkmgrass import _integral_by_points, _program_bound

    program = _class_program(text, shape)
    degree, mask = _program_bound(program, shape)
    return _integral_by_points(program, shape, mask, max(0, degree - shape.dimension))


_LEAVES = ("s1", "s2", "s1,1", "s2,1", "s3", "s0", "zeta", "0", "2", "3", "7")


def _structured_expression(rng) -> str:
    """Up to three terms of up to three factors from _LEAVES, some of them
    sums in parentheses, with powers up to 12."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            factor = rng.choice(_LEAVES)
            if rng.random() < 0.3:
                factor = f"({factor} {rng.choice('+-')} {rng.choice(_LEAVES)})"
            if rng.random() < 0.6:
                factor += f"^{rng.randint(0, 12)}"
            factors.append(factor)
        terms.append("*".join(factors))
    text = rng.choice(("", "-")) + terms[0]
    return text + "".join(f" {rng.choice('+-')} {term}" for term in terms[1:])


def test_point_route_matches_integrate():
    """The integer-point route prints what integrate() of the built class
    prints: on the 12 cli_mix integrals, on 1,000 valid texts drawn from the
    alphabet of `test_expression_reader_matches_descent_reader` and on 1,000
    valid expressions of up to three terms with powers up to 12, on Gr(1,3),
    Gr(2,4), Gr(2,5) and Gr(3,6).  An expression is skipped when its
    restrictions could have more than 500 terms or its integral could need
    more than 40 lattice points, to keep both sides short; at least 80 of
    those drawn have an integral of positive degree."""
    from eqschub.gkmgrass import _integral_by_points, _program_bound

    texts = [
        (4, 2, "s1^4"), (4, 2, "s2*s1^2"), (4, 2, "s1,1*s2"), (4, 2, "2*s1*s1*s1^2 - s2,1*s1"),
        (4, 2, "s2,1*s2,2"), (5, 2, "s1^6"), (5, 2, "s3*s1^3"),
        (5, 2, "s2,1*s1,1*s1^1 + 3*s2*s2*s1^2"), (6, 3, "s2,1*s1*s1^6"),
        (6, 3, "s2,2*s2,1*s1^2"), (5, 2, "(s1 + s2)^3 - s2,1*s1"), (4, 2, "-(s1 - 2)^2*s1,1 + 3"),
    ]
    cases = [(GrassmannianShape(n, k), text) for n, k, text in texts]
    cases = [(shape, text, _by_points(text, shape)) for shape, text in cases]
    shapes = [GrassmannianShape(n, k) for n, k in ((3, 1), (4, 2), (5, 2), (6, 3))]
    rng = random.Random(2302)
    drawn, positive = [0, 0], 0
    while min(drawn) < 1000:
        structured = drawn[0] >= 1000
        if structured:
            text = _structured_expression(rng)
        else:
            text = "".join(rng.choice(_EXPR_PIECES) for _ in range(rng.randint(1, 11)))
            if any(int(e) > 12 for e in re.findall(r"\^\s*(\d+)", text)):
                continue
        shape = rng.choice(shapes)
        try:
            program = _class_program(text, shape)
        except (EqschubError, ValueError):
            continue
        # The largest degree the built side reaches: zero literals and zero
        # powers end no product early there.
        built, _ = _program_bound([(op, arg or 1) if op in ("int", "^") else (op, arg)
                                   for op, arg in program], shape)
        if comb(shape.n - 1 + built, built) > 500:
            continue
        degree, mask = _program_bound(program, shape)
        d = max(0, degree - shape.dimension)
        if comb(shape.n + d, d) > 40:
            continue
        drawn[structured] += 1
        positive += d > 0
        cases.append((shape, text, _integral_by_points(program, shape, mask, d)))
    for shape, text, value in cases:
        assert str(value) == str(integrate(parse_class_expr(text, shape))), (shape, text)
    assert positive >= 80


def _evaluated(cls, point) -> EqClass:
    """The class whose restriction at each fixed point is the constant value
    of cls's restriction there at t = point."""
    return EqClass(cls.shape, {J: value_at(v, point) for J, v in cls.items()})


@pytest.mark.parametrize("n, k, text", [
    (8, 4, "s1^17"), (8, 4, "s3,2,1*s2^6 - 2*(s1 + s2)^9"), (8, 4, "s4,4,3*s2^3"),
    (10, 5, "s1^26"), (10, 5, "s2,1*s1^23"),
])
def test_point_route_matches_localization_sum_at_random_points(n, k, text):
    """The integer-point integral on Gr(4,8) and Gr(5,10), evaluated at three
    seeded random points with distinct coordinates, equals the localization
    sum of `integral_at_point` there.  The sum reads the expression run on
    the built Schubert classes, each first evaluated at the point, so no
    restriction of the expression itself is expanded."""
    from eqschub.gkmgrass import _run_program

    shape = GrassmannianShape(n, k)
    value = _by_points(text, shape)
    assert value.degree() >= 1
    rng = random.Random(2303)
    for _ in range(3):
        point = rng.sample(range(-30, 31), n)

        def leaf(op, arg):
            return _evaluated(schubert_class(arg, shape), point) if op == "s" else constant_class(shape, arg)

        expected = integral_at_point(_run_program(_class_program(text, shape), leaf), point)
        assert value_at(value, point) == expected, point


def test_integrate_point_route_builds_no_class():
    """integrate --class on a dense class above dim, in a fresh interpreter,
    builds no Schubert class."""
    src = Path(__file__).parent.parent / "src"
    code = ("import eqschub.cli, eqschub.gkmgrass as g; "
            "eqschub.cli.main(['integrate', '--n', '6', '--k', '3', '--class', 's2,1*s1*s1^6']); "
            "print(len(g._SCHUBERT_CACHE))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["77*t6 + 77*t5 + 56*t4 - 56*t3 - 77*t2 - 77*t1", "0"]


def test_products_build_no_class():
    """lr and mult, in a fresh interpreter, build no Schubert class: the
    structure constants come from the Chevalley recursion alone."""
    src = Path(__file__).parent.parent / "src"
    code = ("import eqschub.cli, eqschub.gkmgrass as g; "
            "eqschub.cli.main(['lr', '--n', '6', '--k', '3', '--a', '2,1', '--b', '2,1']); "
            "eqschub.cli.main(['mult', '--n', '5', '--k', '2', '--a', '2,1', '--b', '1']); "
            "print(len(g._SCHUBERT_CACHE))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert json.loads(lines[0])["positive"] is True
    assert lines[1:] == ["2,1: t5 - t2", "2,2: 1", "3,1: 1", "positive: true", "0"]


# -------------------------------------------------------------- determinism

def test_suite_reports_identical_across_runs():
    one = run_suites(("duality", "integrals"))
    two = run_suites(("duality", "integrals"))
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_verify_fast_suites_golden():
    names = ("interpolation", "positivity", "duality", "kl", "integrals")
    text = json.dumps(run_suites(names), sort_keys=True, separators=(",", ":")) + "\n"
    assert text == (GOLDEN / "verify_fast.json").read_text()
