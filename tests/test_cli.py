import json
import os
from pathlib import Path

import pytest

from eqschub.cli import main, parse_class_expr
from eqschub.exactalg import ParseError, t
from eqschub.gkmgrass import constant_class, projective_zeta, schubert_class
from eqschub.suites import run_suites
from eqschub.ytcomb import GrassmannianShape

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
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


def test_schur_ordinary(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "1", "--k", "2", "--ordinary")
    assert code == 0
    assert out == "x2 + x1\n"


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
    code, _, err = run_cli(capsys, "lr", "--n", "2", "--k", "1", "--a", "1")
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
], ids=["missing-key", "top-level-list", "restrictions-list", "non-string-value"])
def test_malformed_class_json(tmp_path, capsys, payload):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "gkm-check", "--n", "4", "--k", "2", "--in", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("eqschub: error: ")


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
    for text in ("", "s1 +", "s1 ^ s1", "(s1", "s1 @ s2", "s1 s2"):
        with pytest.raises(ParseError):
            parse_class_expr(text, gr24)


# -------------------------------------------------------------- determinism

def test_suite_reports_identical_across_runs():
    one = run_suites(("duality", "integrals"))
    two = run_suites(("duality", "integrals"))
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_verify_fast_suites_golden():
    names = ("interpolation", "positivity", "duality", "kl", "integrals")
    text = json.dumps(run_suites(names), sort_keys=True, separators=(",", ":")) + "\n"
    assert text == (GOLDEN / "verify_fast.json").read_text()
