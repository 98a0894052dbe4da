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
well-formed call neither imports nor builds it.  A class expression is read
whole into a program, with every check made, before any class is built: so
a syntax fault is reported even after a fault that only building would find.

Class expressions: the program runs in three loops.  The class loop
(`parse_class_expr`) builds the class from Schubert classes.  The degree
loop (`_program_bound`) bounds its degree and finds the fixed points where
it is zero by structure, before any work, so `integrate --class` refuses an
integral too large to write out (see MAX_INTEGRAL_TERMS) and chooses its
route.  The value loop (`_integral_by_points`) runs the program on integers
at the points of a lattice, and the integral is interpolated from those
values, with no class built.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import combinations
from math import comb, lcm, prod
from operator import le
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .dschur import _bialternant
from .exactalg import MAX_EXPONENT, MAX_INDEX, EqschubError, ParseError, Polynomial, _interpolate
from .gkmgrass import (
    EqClass,
    constant_class,
    gkm_check,
    gkm_graph,
    integrate,
    kl_mismatches,
    positivity_certificate,
    projective_zeta,
    schubert_class,
    structure_constants,
)
from .suites import SUITE_NAMES, run_suites
from .ytcomb import GrassmannianShape, Partition, _check_partition, partition_to_subset

DOMAIN_ERROR = 1
VERIFY_FAILURE = 2

# A command accepts Gr(k, n) only with n <= MAX_INDEX, the number of t
# variables, and, when it builds classes over all fixed points, at most
# MAX_FIXED_POINTS of them; it refuses any other shape before it builds
# anything.  The library API has no such bound.
MAX_FIXED_POINTS = 10_000

# `integrate --class` bounds the degree of the class by D before it builds
# anything (`_program_bound`), so its integral is a polynomial in t_1..t_n of
# degree at most d = max(0, D - dim), with at most C(n + d, d) terms.  It
# refuses the expression when that bound is above MAX_INTEGRAL_TERMS.  Then
# it chooses a route.  At each fixed point where the class is not zero by
# structure, the integer-point route (`_integral_by_points`) evaluates the
# expression at the C(n + d, d) points of a lattice, and `integrate` on the
# built class handles a restriction of up to C(n - 1 + D, D) terms against
# dim tangent weights.  The integer-point route is taken when d = 0, or when
# the second count is at least _CROSSOVER times the first; the crossover
# was measured on classes from Gr(1,2) to Gr(3,7).
MAX_INTEGRAL_TERMS = 1_000_000
_CROSSOVER = 40


def _parse_partition(text: str, where: str = "partition") -> Partition:
    parts = []
    for part in text.split(","):
        try:
            parts.append(int(part))
        except ValueError:
            if part.isdecimal():  # more digits than int() reads
                raise ParseError(f"digit run too long in {where} at {part[:12]!r}") from None
            raise ParseError(f"bad partition {text[:12]!r}; expected digits joined by commas") from None
    return Partition.of(parts)


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- expressions

_EXPR_TOKEN = re.compile(r"\s*(?:(?P<s>s\d+(?:,\d+)*)|(?P<int>\d+)|(?P<word>zeta|[-+*^()])|(?P<bad>\S))")


def _class_program(text: str, shape: GrassmannianShape) -> list[tuple]:
    """The class expression `text` on `shape` as a postfix program, checked in
    full (see the module docstring): ("s", partition), ("zeta", None) and
    ("int", n) push a class, ("neg", None) and ("^", e) replace the top one,
    and ("+", None), ("-", None) and ("*", None) replace the top two."""
    tokens, program = [], []
    for m in _EXPR_TOKEN.finditer(text):
        kind, word = m.lastgroup, m[m.lastgroup]
        if kind == "bad":
            raise ParseError(f"bad class expression at {text[m.start():m.start() + 12]!r}")
        if kind == "int":
            try:
                word = int(word)
            except ValueError:  # more digits than int() reads
                raise ParseError(f"digit run too long in class expression at {word[:12]!r}") from None
        tokens.append(("s", _parse_partition(word[1:], "class expression")) if kind == "s"
                      else (kind, word) if kind == "int" else (word, None))
    if not tokens:
        raise ParseError("empty class expression")
    tokens = [(None, None)] + tokens[::-1]  # read from the end; (None, None) ends the text

    def expr():
        negate = False
        while tokens[-1][0] in ("+", "-"):
            negate ^= tokens.pop()[0] == "-"
        term()
        if negate:
            program.append(("neg", None))
        while tokens[-1][0] in ("+", "-"):
            sign = tokens.pop()
            term()
            program.append(sign)

    def term():
        factor()
        while tokens[-1][0] == "*":
            tokens.pop()
            factor()
            program.append(("*", None))

    def factor():
        kind, value = tokens.pop()
        if kind == "(":
            expr()
            if tokens.pop()[0] != ")":
                raise ParseError("unbalanced parentheses")
        elif kind == "zeta" and shape.k != 1:
            raise EqschubError("zeta is only defined on Gr(1, n)")
        elif kind in ("s", "zeta", "int"):
            program.append((kind, _check_partition(value, shape) if kind == "s" else value))
        else:
            raise ParseError(f"unexpected token {kind!r}")
        while tokens[-1][0] == "^":
            tokens.pop()
            kind, exponent = tokens.pop()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds {MAX_EXPONENT}")
            program.append(("^", exponent))

    try:
        expr()
    except RecursionError:
        raise ParseError("class expression nests too deeply") from None
    if len(tokens) > 1:
        raise ParseError("trailing tokens in class expression")
    return program


def _run_program(program: list[tuple], leaf: Callable):
    """The value of a program from `_class_program` on a stack, where leaf(op,
    arg) gives the value an "s", "zeta" or "int" step pushes and the other
    steps apply unary -, ** and binary *, + and - to the values."""
    stack = []
    for op, arg in program:
        if op in ("s", "zeta", "int"):
            stack.append(leaf(op, arg))
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            stack[-1] = stack[-1] ** arg
        else:
            rhs = stack.pop()
            stack[-1] = stack[-1] * rhs if op == "*" else stack[-1] + rhs if op == "+" else stack[-1] - rhs
    return stack.pop()


def _class_of(program: list[tuple], shape: GrassmannianShape) -> EqClass:
    """The class loop: the program run on classes."""
    def leaf(op, arg):
        if op == "s":
            return schubert_class(arg, shape)
        return projective_zeta(shape.n) if op == "zeta" else constant_class(shape, arg)

    return _run_program(program, leaf)


def parse_class_expr(text: str, shape: GrassmannianShape) -> EqClass:
    """The class that `text` names on `shape`."""
    return _class_of(_class_program(text, shape), shape)


def _program_bound(program: list[tuple], shape: GrassmannianShape) -> tuple[int, int]:
    """The degree loop: a bound on the degree of the program's class, and a
    mask with bit j set for the j-th subset of `shape.subsets()` unless the
    class is zero there by its structure.  The Schubert class of lam is zero
    at J unless the partition of J contains lam, that is unless J lies entry
    by entry below the pivot subset of lam; an integer literal is zero
    everywhere or nowhere, a product is zero where either factor is and a sum
    where both terms are.  A degree is at most MAX_INTEGRAL_TERMS + dim, since
    `_cmd_integrate` refuses every degree above that; so chained powers stay
    small numbers."""
    everywhere, cap = (1 << comb(shape.n, shape.k)) - 1, MAX_INTEGRAL_TERMS + shape.dimension
    masks, stack = {}, []
    for op, arg in program:
        if op == "s":
            if arg not in masks:
                top = partition_to_subset(arg, shape).elements
                masks[arg] = sum(1 << j for j, J in enumerate(combinations(range(1, shape.n + 1), shape.k))
                                 if all(map(le, J, top)))
            stack.append((arg.weight, masks[arg]))
        elif op == "zeta":
            stack.append((1, everywhere))
        elif op == "int":
            stack.append((0, everywhere if arg else 0))
        elif op == "^":
            degree, mask = stack[-1]
            stack[-1] = (min(degree * arg, cap), mask) if arg else (0, everywhere)
        elif op != "neg":
            (right, right_mask), (left, left_mask) = stack.pop(), stack[-1]
            if op == "*":
                mask = left_mask & right_mask
                stack[-1] = (min(left + right, cap) if mask else 0, mask)
            else:
                stack[-1] = (max(left, right), left_mask | right_mask)
    return stack.pop()


def _integral_by_points(program: list[tuple], shape: GrassmannianShape, mask: int,
                        d: int) -> Polynomial:
    """The value loop: the integral of the program's class, of degree at most d,
    rebuilt by `_interpolate` from its values at integer points p.  There it
    is the sum over the fixed points J in mask of c(J)(p) / e_J(p), taken
    over one common integer denominator: e_J(p) is the product of the
    tangent weights t_j - t_i at p (i in J, j not in J), and c(J)(p) the
    program run on integers, with `_bialternant` for each Schubert class,
    -p_i for zeta at the point {i} and each integer literal itself."""
    n = shape.n
    fixed = [(J, tuple(i for i in range(1, n + 1) if i not in J))
             for j, J in enumerate(combinations(range(1, n + 1), shape.k)) if mask >> j & 1]

    def integral_at(point):
        terms = []
        for pivots, others in fixed:
            memo: dict = {}

            def leaf(op, arg):
                if op == "s":
                    if arg not in memo:
                        memo[arg] = _bialternant(arg.parts, pivots, point)
                    return memo[arg]
                return -point[pivots[0] - 1] if op == "zeta" else arg

            value = _run_program(program, leaf)
            if value:
                terms.append((value, prod(point[j - 1] - point[i - 1] for i in pivots for j in others)))
        common = lcm(*(euler for _, euler in terms))
        total, rest = divmod(sum(value * (common // euler) for value, euler in terms), common)
        if rest:
            raise AssertionError(f"integral of a class is not an integer at {point}: {rest}/{common} left")
        return total

    return _interpolate(integral_at, n, d)


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
    from .dschur import double_schur, ordinary_schur, restrict_schur

    lam = _parse_partition(args.shape)
    if args.restrict_to is not None:
        if args.n is None:
            raise EqschubError("--restrict-to needs --n")
        mu = _parse_partition(args.restrict_to)
        poly = restrict_schur(lam, mu, _indexed_shape(args))
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
    shape = _shape_from(args)
    program = _class_program(args.cls, shape)
    degree, mask = _program_bound(program, shape)
    d = max(0, degree - shape.dimension)
    terms = comb(shape.n + d, d)
    if terms > MAX_INTEGRAL_TERMS:
        raise EqschubError(f"the integral may reach degree {d} and {terms} terms; "
                           f"at most {MAX_INTEGRAL_TERMS} terms are accepted")
    if not d or comb(shape.n - 1 + degree, degree) * shape.dimension >= _CROSSOVER * terms:
        value = _integral_by_points(program, shape, mask, d)
    else:
        value = integrate(_class_of(program, shape))
    if args.json:
        _emit(_json_text({"integral": str(value)}), args)
    else:
        _emit(str(value), args)
    return 0


def _load_class(args, shape: GrassmannianShape) -> EqClass:
    if args.cls is not None:
        return parse_class_expr(args.cls, shape)
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
