"""Command-line parsing: help and usage text against goldens, and the
option-table parse against argparse as its oracle."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqschub.cli import COMMANDS, build_parser, main, parse_table

HELP = Path(__file__).parent / "golden" / "help"

COMMAND_NAMES = ("schur", "class", "mult", "lr", "integrate", "gkm-check", "gkm-graph",
                 "kl-verify", "verify")

USAGE_ERRORS = {
    "usage-lr-missing-b": ["lr", "--n", "2", "--k", "1", "--a", "1"],
    "usage-unknown-command": ["nope"],
    "usage-verify-bad-suite": ["verify", "--suite", "nope"],
    "usage-gkm-check-no-class": ["gkm-check", "--n", "4", "--k", "2"],
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------- golden help text

@pytest.mark.parametrize("argv", [["--help"]] + [[cmd, "--help"] for cmd in COMMAND_NAMES],
                         ids=["eqschub"] + list(COMMAND_NAMES))
def test_help_text_golden(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    assert out == (HELP / f"{argv[0] if len(argv) == 2 else 'eqschub'}.txt").read_text()


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_golden(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(USAGE_ERRORS[name])
    assert (code, out) == (1, "")
    assert err == (HELP / f"{name}.txt").read_text()


# ------------------------------------------------------ table parse vs argparse

PARSER = build_parser()

# Values int() or argparse read in some unusual way; "\u0663" is an Arabic-Indic 3.
ODD_VALUES = ("-4", " 4", "+4", "4_0", "x", "", "-(s1 - 2)", "-", "--", "-h", "--n", "4 ",
              "\u0663")
GOOD_VALUES = {"int": ("2", "4", "0"), "str": ("1", "2,1", "s1^2", "a b")}


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@st.composite
def option_tokens(draw, opt):
    """One option of a command as tokens: mostly the well-formed form, else
    `--opt=value`, an abbreviation, a flag with no value or a stray token."""
    good = opt.choices or GOOD_VALUES.get(opt.kind, ())
    value = draw(st.sampled_from(good if good and draw(st.integers(0, 3)) else ODD_VALUES))
    form = draw(st.sampled_from(("pair",) * 16 + ("eq", "abbrev", "bare", "stray")))
    if form == "pair":
        return [opt.flag] if opt.kind == "flag" else [opt.flag, value]
    if form == "eq":
        return [f"{opt.flag}={value}"]
    if form == "abbrev":
        return [opt.flag[:draw(st.integers(3, max(3, len(opt.flag) - 1)))]] + (
            [] if opt.kind == "flag" else [value])
    if form == "bare":
        return [opt.flag]
    return [draw(st.sampled_from(("-h", "--help", "x", "--nope", "-")))]


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    required = [opt for opt in command.options if opt.required]
    kept = [opt for opt in required if draw(st.integers(0, 19))]  # drop one in twenty
    one_of = [opt for opt in command.options if opt.dest in command.one_of]
    kept += draw(st.sampled_from((one_of[:1], one_of[1:], one_of[:1], one_of[1:], [], one_of)))
    extra = draw(st.lists(st.sampled_from(command.options), max_size=2))  # may repeat
    argv = []
    for opt in draw(st.permutations(kept + extra)):
        argv += draw(option_tokens(opt))
    head = draw(st.sampled_from((name,) * 8 + (name[:3], "-h", "nope")))
    return [head] + argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_table_parse_matches_argparse_or_declines(argv):
    table = parse_table(argv)
    expected = argparse_vars(argv)
    if expected is None:
        assert table is None
    elif table is not None:
        assert table == expected
        assert table["func"] is expected["func"]


@pytest.mark.parametrize("argv", [[], ["--help"], ["class"], ["class", "--n", "4", "--k"],
                                  ["verify", "--suite"], ["gkm-check", "--n", "4", "--k", "2",
                                                          "--class", "s1", "--in", "f.json"]])
def test_table_parse_declines_what_argparse_refuses(argv):
    assert argparse_vars(argv) is None
    assert parse_table(argv) is None


# Request shapes of the benchmark's CLI workload, one per kind of request.
WORKLOAD_SHAPES = [
    ["schur", "--shape", "2,1", "--k", "3"],
    ["schur", "--shape", "1", "--k", "2", "--restrict-to", "2,2", "--n", "5"],
    ["class", "--n", "4", "--k", "2", "--shape", "2,1", "--json"],
    ["lr", "--n", "4", "--k", "2", "--a", "1", "--b", "2,1"],
    ["mult", "--n", "5", "--k", "2", "--a", "2", "--b", "1"],
    ["integrate", "--n", "4", "--k", "2", "--class", "2*s1*s1^2 - s2,1*s1"],
    ["integrate", "--n", "5", "--k", "2", "--class", "(s1 + s2)^3 - s2,1*s1"],
    ["gkm-check", "--n", "4", "--k", "2", "--in", "member0.json"],
    ["gkm-check", "--n", "6", "--k", "3", "--class", "s1^3 - s1,1,1"],
    ["gkm-graph", "--n", "5", "--k", "2", "--json"],
    ["kl-verify", "--n", "4", "--k", "2"],
    ["verify", "--suite", "duality"],
    ["integrate", "--n", "4", "--k", "2", "--class", "s1 +* s2"],
    ["class", "--n", "4", "--k", "2", "--shape", "3"],
]


@pytest.mark.parametrize("argv", WORKLOAD_SHAPES, ids=lambda argv: " ".join(argv))
def test_workload_shapes_take_the_table_path(argv):
    table = parse_table(argv)
    assert table is not None
    assert table == argparse_vars(argv)


def test_leading_minus_expression_goes_through_argparse(capsys):
    argv = ["integrate", "--n", "4", "--k", "2", "--class", "-(s1 - 2)^2*s1,1 + 3"]
    assert parse_table(argv) is None
    assert argparse_vars(argv)["cls"] == argv[-1]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_leading_minus_expression_in_equals_form():
    # argparse takes "-s1^4" after "--class" for an option; the help of
    # --class says to write such an expression as --class=EXPR.
    code, out, err = run_main(["integrate", "--n", "4", "--k", "2", "--class", "-s1^4"])
    assert (code, out) == (1, "") and "expected one argument" in err
    assert run_main(["integrate", "--n", "4", "--k", "2", "--class=-s1^4"]) == (0, "-2\n", "")
    assert run_main(["gkm-check", "--n", "4", "--k", "2", "--class=-s1^4"]) == (0, "ok\n", "")


def test_well_formed_call_does_not_import_argparse():
    src = Path(__file__).parent.parent / "src"
    code = ("import sys; from eqschub.cli import main; "
            "main(['class', '--n', '4', '--k', '2', '--shape', '1']); "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_large_command_list_parses():
    # Each line of tools/large.txt, as the bench tool reads it, is a positive
    # time budget and a command line that the option table accepts.
    import importlib.util

    path = Path(__file__).parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    entries = bench_pairs.read_large(bench_pairs.LARGE)
    assert len(entries) == 7
    for budget, argv in entries:
        assert budget > 0, argv
        assert parse_table(argv) is not None, argv
