"""Command-line front end.

Subcommands: schur, class, mult, lr, integrate, gkm-check, gkm-graph,
kl-verify, verify.  Exit status is 0 on success, 1 on a domain or usage
error, 2 on a verification failure.  JSON output uses sorted keys and
compact separators so it is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .exactalg import EqschubError, ParseError
from .gkmgrass import (
    EqClass,
    constant_class,
    gkm_check,
    gkm_graph,
    integrate,
    kempf_laksov_class,
    positivity_certificate,
    projective_zeta,
    schubert_class,
    structure_constants,
)
from .suites import SUITE_NAMES, run_suites
from .ytcomb import GrassmannianShape, Partition

DOMAIN_ERROR = 1
VERIFY_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the domain-error status."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(DOMAIN_ERROR, f"{self.prog}: error: {message}\n")


def _parse_partition(text: str) -> Partition:
    try:
        parts = [int(s) for s in text.split(",")]
    except ValueError:
        raise ParseError(f"bad partition {text!r}; expected digits joined by commas")
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

_EXPR_TOKEN = re.compile(
    r"\s*(?:(?P<schur>s\d+(?:,\d+)*)|(?P<zeta>zeta)|(?P<int>\d+)|(?P<op>[-+*^()]))"
)


def _expr_tokens(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad class expression at {text[pos:pos+12]!r}")
            break
        if m.group("schur"):
            tokens.append(("schur", _parse_partition(m.group("schur")[1:])))
        elif m.group("zeta"):
            tokens.append(("zeta", None))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent over +, -, *, ^ with s<partition>, zeta, and ints."""

    def __init__(self, text: str, shape: GrassmannianShape):
        self.tokens = _expr_tokens(text)
        self.pos = 0
        self.shape = shape

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _take(self):
        token = self._peek()
        self.pos += 1
        return token

    def parse(self) -> EqClass:
        if not self.tokens:
            raise ParseError("empty class expression")
        value = self._expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing tokens in class expression")
        return value

    def _expr(self) -> EqClass:
        negate = False
        while self._peek() == ("op", "-") or self._peek() == ("op", "+"):
            if self._take()[1] == "-":
                negate = not negate
        value = self._term()
        if negate:
            value = -value
        while self._peek()[0] == "op" and self._peek()[1] in "+-":
            op = self._take()[1]
            rhs = self._term()
            value = value + (-rhs) if op == "-" else value + rhs
        return value

    def _term(self) -> EqClass:
        value = self._factor()
        while self._peek() == ("op", "*"):
            self._take()
            value = value * self._factor()
        return value

    def _factor(self) -> EqClass:
        value = self._primary()
        while self._peek() == ("op", "^"):
            self._take()
            kind, exp = self._take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            value = value ** exp
        return value

    def _primary(self) -> EqClass:
        kind, payload = self._take()
        if kind == "schur":
            return schubert_class(payload, self.shape)
        if kind == "zeta":
            if self.shape.k != 1:
                raise EqschubError("zeta is only defined on Gr(1, n)")
            return projective_zeta(self.shape.n)
        if kind == "int":
            return constant_class(self.shape, payload)
        if kind == "op" and payload == "(":
            value = self._expr()
            if self._take() != ("op", ")"):
                raise ParseError("unbalanced parentheses")
            return value
        raise ParseError(f"unexpected token {payload!r}")


def parse_class_expr(text: str, shape: GrassmannianShape) -> EqClass:
    return _ExprParser(text, shape).parse()


# ---------------------------------------------------------------- subcommands

def _shape_from(args) -> GrassmannianShape:
    return GrassmannianShape(args.n, args.k)


def _cmd_schur(args) -> int:
    from .dschur import double_schur, ordinary_schur, restrict_schur

    lam = _parse_partition(args.shape)
    if args.restrict_to is not None:
        if args.n is None:
            raise EqschubError("--restrict-to needs --n")
        mu = _parse_partition(args.restrict_to)
        poly = restrict_schur(lam, mu, GrassmannianShape(args.n, args.k))
    elif args.ordinary:
        poly = ordinary_schur(lam, args.k)
    else:
        poly = double_schur(lam, args.k).value
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


def _cmd_lr(args, json_default: bool) -> int:
    shape = _shape_from(args)
    lam = _parse_partition(args.a)
    mu = _parse_partition(args.b)
    expansion = structure_constants(lam, mu, shape)
    positive = all(
        positivity_certificate(coeff, shape.n).ok for coeff in expansion.coeffs.values()
    )
    payload = dict(expansion.to_json_dict())
    payload["positive"] = positive
    if args.json or json_default:
        _emit(_json_text(payload), args)
    else:
        lines = [f"{nu}: {coeff}" for nu, coeff in sorted(
            expansion.coeffs.items(), key=lambda kv: str(kv[0]))]
        lines.append(f"positive: {'true' if positive else 'false'}")
        _emit("\n".join(lines), args)
    return 0


def _cmd_integrate(args) -> int:
    shape = _shape_from(args)
    cls = parse_class_expr(args.cls, shape)
    value = integrate(cls)
    if args.json:
        _emit(_json_text({"integral": str(value)}), args)
    else:
        _emit(str(value), args)
    return 0


def _load_class(args, shape: GrassmannianShape) -> EqClass:
    if args.cls is not None:
        return parse_class_expr(args.cls, shape)
    with open(args.infile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
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
    failures = []
    for lam in shape.partitions():
        if kempf_laksov_class(lam, shape) != schubert_class(lam, shape):
            failures.append(str(lam))
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eqschub", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, shape_flags=True):
        if shape_flags:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p = sub.add_parser("schur", help="double Schur polynomial, restriction, or ordinary limit")
    p.add_argument("--shape", required=True, help="partition, e.g. 2,1 (0 for empty)")
    p.add_argument("--k", type=int, required=True, help="number of x variables")
    p.add_argument("--restrict-to", help="partition of the fixed point to evaluate at")
    p.add_argument("--n", type=int, help="ambient dimension, needed with --restrict-to")
    p.add_argument("--ordinary", action="store_true", help="set every u variable to zero")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("class", help="restrictions of a Schubert class")
    add_common(p)
    p.add_argument("--shape", required=True)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("mult", help="product expansion with positivity report")
    add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=lambda a: _cmd_lr(a, json_default=False))

    p = sub.add_parser("lr", help="structure constants as JSON")
    add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=lambda a: _cmd_lr(a, json_default=True))

    p = sub.add_parser("integrate", help="fixed-point integral of a class expression")
    add_common(p)
    p.add_argument("--class", dest="cls", required=True,
                   help="expression in s<partition>, zeta, integers, + - * ^")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("gkm-check", help="edge divisibility test for a class")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="cls", help="class expression")
    group.add_argument("--in", dest="infile", metavar="FILE", help="class JSON file")
    p.set_defaults(func=_cmd_gkm_check)

    p = sub.add_parser("gkm-graph", help="vertices and weighted edges of the moment graph")
    add_common(p)
    p.set_defaults(func=_cmd_gkm_graph)

    p = sub.add_parser("kl-verify", help="determinantal classes against Schubert classes")
    add_common(p)
    p.set_defaults(func=_cmd_kl_verify)

    p = sub.add_parser("verify", help="batch verification suites")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help or usage error
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EqschubError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"eqschub: error: {err}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
