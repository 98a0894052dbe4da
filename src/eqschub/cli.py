"""Command-line front end.

Subcommands: schur, class, mult, lr, integrate, gkm-check, gkm-graph,
kl-verify, verify.  Exit status is 0 on success, 1 on a domain or usage
error, 2 on a verification failure.  JSON output uses sorted keys and
compact separators so it is byte-stable across runs.

Parsing: every subcommand and its options are declared once, in
`COMMANDS`.  `main` reads a well-formed command line straight from that
table (`parse_table`): the command name, then exact `--flag value` pairs
or bare flags, each option at most once, every required option present,
no value that starts with `-`, `int()` accepting every int value and each
choice among its choices.  Any other command line (help flags,
abbreviations, `--opt=value`, repeats, a missing option, a bad value, an
unknown token) goes to the argparse parser that `build_parser` builds from
the same table.  So argparse alone writes help and usage text, and a
well-formed call neither imports nor builds it.
"""

from __future__ import annotations

import json
import sys
from math import comb
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .exactalg import MAX_INDEX, EqschubError, ParseError
from .gkmgrass import (
    MAX_INTEGRAL_TERMS,
    EqClass,
    _built_degree,
    _class_of,
    _class_program,
    gkm_check,
    gkm_graph,
    integrate_expression,
    kl_mismatches,
    positivity_certificate,
    schubert_class,
    structure_constants,
)
from .suites import SUITE_NAMES, run_suites
from .ytcomb import GrassmannianShape, _check_partition, _parse_partition, _ssyt_count

DOMAIN_ERROR = 1
VERIFY_FAILURE = 2

# A command accepts Gr(k, n) only with n <= MAX_INDEX, the number of t
# variables, and, when it builds classes over all fixed points, at most
# MAX_FIXED_POINTS of them; `gkm-check --class` builds no class of degree D
# with C(n + D, D) > MAX_INTEGRAL_TERMS, and `schur` no tableau sum of more
# terms.  Each refuses before it builds anything; the library API has none.
MAX_FIXED_POINTS = 10_000


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- subcommands

def _indexed_shape(args) -> GrassmannianShape:
    shape = GrassmannianShape(args.n, args.k)
    if shape.n > MAX_INDEX:
        raise EqschubError(f"Gr({shape.k},{shape.n}) needs t{shape.n}; at most {MAX_INDEX} t variables exist")
    return shape


def _shape_from(args) -> GrassmannianShape:
    shape = _indexed_shape(args)
    points = comb(shape.n, shape.k)
    if points > MAX_FIXED_POINTS:
        raise EqschubError(
            f"Gr({shape.k},{shape.n}) has {points} fixed points; at most {MAX_FIXED_POINTS} are accepted"
        )
    return shape


def _cmd_schur(args) -> int:
    from .dschur import _SCHUR_FACTORS, _check_schur, double_schur, ordinary_schur, restrict_schur

    lam = _parse_partition(args.shape)
    ordinary = args.ordinary and args.restrict_to is None
    if args.restrict_to is not None:
        if args.n is None:
            raise EqschubError("--restrict-to needs --n")
        mu = _parse_partition(args.restrict_to)
        shape = _indexed_shape(args)
        lam = _check_partition(lam, shape)
    else:  # dschur's refusals of rows and indices come before the size bound
        _check_schur(lam, args.k, _SCHUR_FACTORS[ordinary])
    # A tableau's product has one factor per box, of two terms unless ordinary.
    terms = _ssyt_count(lam, args.k) << (0 if ordinary else lam.weight)
    if terms > MAX_INTEGRAL_TERMS:
        raise EqschubError(f"the tableau sum may form {terms} terms; "
                           f"at most {MAX_INTEGRAL_TERMS} terms are accepted")
    if args.restrict_to is not None:
        poly = restrict_schur(lam, mu, shape)
    elif args.ordinary:
        poly = ordinary_schur(lam, args.k)
    else:
        poly = double_schur(lam, args.k)
    if args.json:
        _emit(_json_text({"shape": list(lam.parts), "k": args.k, "poly": str(poly)}), args)
    else:
        _emit(str(poly), args)
    return 0


def _cmd_class(args) -> int:
    shape = _shape_from(args)
    cls = schubert_class(_parse_partition(args.shape), shape)
    if args.json:
        _emit(_json_text(cls.to_json_dict()), args)
    else:
        _emit(str(cls), args)
    return 0


def _cmd_products(args, as_json: bool) -> int:
    shape = _shape_from(args)
    lam = _parse_partition(args.a)
    mu = _parse_partition(args.b)
    expansion = structure_constants(lam, mu, shape)
    positive = all(
        positivity_certificate(coeff, shape.n).ok for coeff in expansion.coeffs.values()
    )
    payload = dict(expansion.to_json_dict())
    payload["positive"] = positive
    if as_json:
        _emit(_json_text(payload), args)
    else:
        lines = [f"{nu}: {coeff}" for nu, coeff in sorted(
            expansion.coeffs.items(), key=lambda kv: str(kv[0]))]
        lines.append(f"positive: {'true' if positive else 'false'}")
        _emit("\n".join(lines), args)
    return 0


def _cmd_mult(args) -> int:
    return _cmd_products(args, as_json=args.json)


def _cmd_lr(args) -> int:
    return _cmd_products(args, as_json=True)


def _cmd_integrate(args) -> int:
    value = integrate_expression(args.cls, _shape_from(args))
    if args.json:
        _emit(_json_text({"integral": str(value)}), args)
    else:
        _emit(str(value), args)
    return 0


def _load_class(args, shape: GrassmannianShape) -> EqClass:
    if args.cls is not None:
        program = _class_program(args.cls, shape)
        degree = _built_degree(program, shape)
        terms = comb(shape.n + degree, degree)
        if terms > MAX_INTEGRAL_TERMS:
            raise EqschubError(f"the class may reach degree {degree} and {terms} terms; "
                               f"at most {MAX_INTEGRAL_TERMS} terms are accepted")
        return _class_of(program, shape)
    with open(args.infile, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ParseError("class file nests too deeply") from None
    cls = EqClass.from_json_dict(data)
    if cls.shape != shape:
        raise EqschubError(f"class file is for Gr({cls.shape.k},{cls.shape.n})")
    return cls


def _cmd_gkm_check(args) -> int:
    shape = _shape_from(args)
    cls = _load_class(args, shape)
    result = gkm_check(cls)
    if args.json:
        payload = {
            "ok": result.ok,
            "violations": [
                {
                    "from": str(v.start),
                    "to": str(v.end),
                    "weight": str(v.weight),
                    "difference": str(v.difference),
                }
                for v in result.violations
            ],
        }
        _emit(_json_text(payload), args)
    else:
        if result.ok:
            _emit("ok", args)
        else:
            _emit("\n".join(str(v) for v in result.violations), args)
    return 0 if result.ok else VERIFY_FAILURE


def _cmd_gkm_graph(args) -> int:
    graph = gkm_graph(_shape_from(args))
    if args.json:
        _emit(_json_text(graph.to_json_dict()), args)
    else:
        lines = ["vertices: " + " ".join(str(v) for v in graph.vertices)]
        lines += [f"{a} -- {b}: {w}" for a, b, w in graph.edges]
        _emit("\n".join(lines), args)
    return 0


def _cmd_kl_verify(args) -> int:
    shape = _shape_from(args)
    failures = [str(lam) for lam in kl_mismatches(shape)]
    if args.json:
        _emit(_json_text({"ok": not failures, "cases": len(shape.partitions()),
                          "failures": failures}), args)
    else:
        if failures:
            _emit("mismatch at: " + "; ".join(failures), args)
        else:
            _emit(f"ok ({len(shape.partitions())} classes)", args)
    return 0 if not failures else VERIFY_FAILURE


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    report = run_suites(names)
    if args.json:
        _emit(_json_text(report), args)
    else:
        lines = []
        for suite in report["suites"]:
            status = "PASS" if suite["ok"] else "FAIL"
            lines.append(f"[{status}] {suite['name']} ({suite['cases']} cases)")
            lines.extend("    " + f for f in suite["failures"])
        _emit("\n".join(lines), args)
    return 0 if report["ok"] else VERIFY_FAILURE


# ---------------------------------------------------------------- option table

class Option(NamedTuple):
    """One option of a subcommand.  `kind` is "int", "str", "flag" (no
    value; False unless given) or "choice" (one of `choices`)."""

    flag: str
    dest: str
    kind: str = "str"
    required: bool = False
    help: str | None = None
    metavar: str | None = None
    choices: tuple[str, ...] = ()
    default: str | None = None


class Command(NamedTuple):
    """One subcommand: its help line, its options in help order, the handler
    that runs it, and the dests of which exactly one must be given."""

    help: str
    options: tuple[Option, ...]
    handler: Callable
    one_of: tuple[str, ...] = ()


_SHAPE_OPTIONS = (
    Option("--n", "n", "int", required=True),
    Option("--k", "k", "int", required=True),
    Option("--json", "json", "flag", help="machine-readable output"),
    Option("--out", "out", help="write output to FILE", metavar="FILE"),
)
_FACTORS = (Option("--a", "a", required=True), Option("--b", "b", required=True))

COMMANDS = {
    "schur": Command("double Schur polynomial, restriction, or ordinary limit", (
        Option("--shape", "shape", required=True, help="partition, e.g. 2,1 (0 for empty)"),
        Option("--k", "k", "int", required=True, help="number of x variables"),
        Option("--restrict-to", "restrict_to",
               help="partition of the fixed point to evaluate at"),
        Option("--n", "n", "int", help="ambient dimension, needed with --restrict-to"),
        Option("--ordinary", "ordinary", "flag", help="set every u variable to zero"),
        Option("--json", "json", "flag"),
        Option("--out", "out", metavar="FILE"),
    ), _cmd_schur),
    "class": Command("restrictions of a Schubert class",
                     _SHAPE_OPTIONS + (Option("--shape", "shape", required=True),), _cmd_class),
    "mult": Command("product expansion with positivity report",
                    _SHAPE_OPTIONS + _FACTORS, _cmd_mult),
    "lr": Command("structure constants as JSON", _SHAPE_OPTIONS + _FACTORS, _cmd_lr),
    "integrate": Command("fixed-point integral of a class expression", _SHAPE_OPTIONS + (
        Option("--class", "cls", required=True,
               help="expression in s<partition>, zeta, integers, + - * ^; "
                    "write one that starts with - as --class=EXPR"),
    ), _cmd_integrate),
    "gkm-check": Command("edge divisibility test for a class", _SHAPE_OPTIONS + (
        Option("--class", "cls",
               help="class expression; write one that starts with - as --class=EXPR"),
        Option("--in", "infile", help="class JSON file", metavar="FILE"),
    ), _cmd_gkm_check, one_of=("cls", "infile")),
    "gkm-graph": Command("vertices and weighted edges of the moment graph",
                         _SHAPE_OPTIONS, _cmd_gkm_graph),
    "kl-verify": Command("determinantal classes against Schubert classes",
                         _SHAPE_OPTIONS, _cmd_kl_verify),
    "verify": Command("batch verification suites", (
        Option("--suite", "suite", "choice", choices=("all",) + SUITE_NAMES, default="all"),
        Option("--json", "json", "flag"),
        Option("--out", "out", metavar="FILE"),
    ), _cmd_verify),
}


def parse_table(argv) -> dict | None:
    """The options of a well-formed command line (see the module docstring)
    exactly as `vars(build_parser().parse_args(argv))` holds them, or None
    for any other command line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    by_flag = {opt.flag: opt for opt in command.options}
    values = {opt.dest: False if opt.kind == "flag" else opt.default for opt in command.options}
    values.update(command=argv[0], func=command.handler)
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        opt = by_flag.get(flag)
        if opt is None or opt.dest in seen:
            return None
        seen.add(opt.dest)
        if opt.kind == "flag":
            values[opt.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if opt.kind == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        elif opt.kind == "choice" and value not in opt.choices:
            return None
        values[opt.dest] = value
    if any(opt.required and opt.dest not in seen for opt in command.options):
        return None
    if command.one_of and len(seen.intersection(command.one_of)) != 1:
        return None
    return values


def build_parser():
    """The argparse parser of every command in `COMMANDS`, for the command
    lines `parse_table` declines; it writes all help and usage text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse variant whose usage errors exit with the domain-error status."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(DOMAIN_ERROR, f"{self.prog}: error: {message}\n")

    # The help text describes the commands: the module docstring up to its parsing notes.
    description = (__doc__ or "").partition("\n\nParsing:")[0] or None
    parser = Parser(prog="eqschub", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = None
        for opt in command.options:
            target = p
            if opt.dest in command.one_of:
                if group is None:
                    group = p.add_mutually_exclusive_group(required=True)
                target = group
            if opt.kind == "flag":
                target.add_argument(opt.flag, dest=opt.dest, action="store_true", help=opt.help)
            else:
                target.add_argument(opt.flag, dest=opt.dest, required=opt.required,
                                    help=opt.help, metavar=opt.metavar, default=opt.default,
                                    type=int if opt.kind == "int" else None,
                                    choices=opt.choices or None)
        p.set_defaults(func=command.handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    values = parse_table(argv)
    if values is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse help or usage error
            return int(exc.code or 0)
    else:
        args = SimpleNamespace(**values)
    try:
        return args.func(args)
    except (EqschubError, ValueError, OSError, RecursionError) as err:
        print(f"eqschub: error: {err}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
