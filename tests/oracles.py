"""Independent oracles the tests check the engine against.

Apart from the structure-constant oracle and the class-expression reader at
the end, nothing here calls the engine's class construction: the LR counter
is a direct backtracking enumeration of skew tableaux, the bialternant Schur
polynomial goes through sympy, and the fixed-point restriction substitutes
into an expanded polynomial with the generic arithmetic of `exactalg`.
Schubert classes come from the semistandard tableau sum of `restrict_schur`
at every point, taken with one generic product per box as the engine once
did, and opposite classes from those by reflecting the subsets and
substituting t_i -> t_{n+1-i}.  Excited Young diagrams come from a search
over excited moves on sets of boxes, not from the flagged tableaux that
the engine sums.  The moment-graph test divides each edge's
difference by its weight and certifies the verdict by multiplying back, and
the integral is a sum of fractions over the fixed points at one integer
point.  The Graham positivity certificate substitutes
t_i -> t_n - (y_i + ... + y_{n-1}) all at once with the generic
`Polynomial.substitute`.  The determinant is the sum over all permutations
of signed products of entries, and the Chern series of Q - C^m at a fixed
point is built factor by factor for each m with generic products.
Polynomial text is read by a tokenizer and a token loop, which check every
token before any syntax.  Class expressions are read by recursive descent
over the tokens, building each class with the engine's constructors as soon
as it is read, so that reader checks only the reading.  Structure constants
come from the engine's former route: `expand_in_basis` of the product of
the two Schubert classes, with no Chevalley recursion.  Division by a
linear form is sympy's `div` in lex order.

The `tuple_*` functions are the polynomial arithmetic in the engine's former
monomial layout: a tuple of ((rank, index), exponent) pairs sorted by
descending variable, with unbounded exponents and indices.  They check the
packed-int monomials of `exactalg`, including where those must refuse an
exponent or an index.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod

import sympy

from eqschub.exactalg import (
    FAMILIES,
    MAX_EXPONENT,
    EqschubError,
    MonomialOverflow,
    ParseError,
    Polynomial,
    _NAMES,
    _ONE,
    _RANK,
    _decode,
    _exponents,
    _shift,
    _variable,
    t,
    u,
    x,
)
from eqschub.gkmgrass import (
    BasisExpansion,
    EqClass,
    GkmCheckResult,
    GkmViolation,
    PositivityCertificate,
    constant_class,
    expand_in_basis,
    gkm_graph,
    projective_zeta,
    schubert_class,
)
from eqschub.ytcomb import (
    Partition,
    _check_partition,
    _parse_partition,
    partition_to_subset,
    ssyt_enumerate,
    subset_to_partition,
)


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient by brute-force tableau counting.

    Counts semistandard fillings of the skew shape nu/lam with content mu
    whose reverse reading word (rows top to bottom, each read right to
    left) is a lattice word.
    """
    lam = tuple(p for p in lam if p)
    mu = tuple(p for p in mu if p)
    nu = tuple(p for p in nu if p)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if len(lam) > len(nu):
        return 0
    inner = lam + (0,) * (len(nu) - len(lam))
    if any(i > o for i, o in zip(inner, nu)):
        return 0
    if not mu:
        return 1  # empty filling

    boxes = []
    for i, width in enumerate(nu):
        for j in range(width - 1, inner[i] - 1, -1):  # reverse reading order
            boxes.append((i, j))
    grid = {(i, j): 0 for i, j in boxes}
    counts = [0] * (len(mu) + 1)
    total = 0

    def fill(pos: int):
        nonlocal total
        if pos == len(boxes):
            total += 1
            return
        i, j = boxes[pos]
        for v in range(1, len(mu) + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue  # lattice word prefix condition
            right = grid.get((i, j + 1))
            if right is not None and right and v > right:
                continue
            if i > 0 and inner[i - 1] <= j < nu[i - 1]:
                above = grid[(i - 1, j)]
                if v <= above:
                    continue
            grid[(i, j)] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1
            grid[(i, j)] = 0

    fill(0)
    return total


def pieri_power_of_sigma1(power: int, rows: int, width: int) -> dict:
    """Expansion of sigma_1^power inside the rows x width box, by the Pieri
    rule alone: multiplying by sigma_1 adds a single box in all ways."""
    coeffs = {(): 1}
    for _ in range(power):
        nxt: dict = {}
        for lam, c in coeffs.items():
            padded = list(lam) + [0] * (rows - len(lam))
            for r in range(rows):
                if padded[r] < width and (r == 0 or padded[r] < padded[r - 1]):
                    grown = padded[:]
                    grown[r] += 1
                    key = tuple(p for p in grown if p)
                    nxt[key] = nxt.get(key, 0) + c
        coeffs = nxt
    return coeffs


def schur_bialternant(lam, k: int):
    """Classical bialternant formula for the Schur polynomial, via sympy."""
    xs = sympy.symbols([f"x{i}" for i in range(1, k + 1)])
    padded = list(lam) + [0] * (k - len(lam))
    numerator = sympy.Matrix(k, k, lambda i, j: xs[i] ** (padded[j] + k - 1 - j))
    denominator = sympy.Matrix(k, k, lambda i, j: xs[i] ** (k - 1 - j))
    return sympy.expand(sympy.cancel(numerator.det() / denominator.det()))


def poly_to_sympy(p):
    """Translate an engine polynomial into a sympy expression."""
    total = sympy.Integer(0)
    for mono, coeff in p.items():
        term = sympy.Integer(coeff)
        for slot, e in _decode(mono):
            family, idx = _variable(slot)
            term *= sympy.Symbol(f"{family}{idx}") ** e
        total += term
    return total


def divide_by_sympy(f, form, a: int):
    """(q, r) with f = q*form + r, as sympy expressions, from sympy's `div`
    over Z in lex order with t_a first; the form's coefficient at t_a must
    be +-1, so r is free of t_a."""
    ta = sympy.Symbol(f"t{a}")
    f, form = poly_to_sympy(f), poly_to_sympy(form)
    others = sorted((f.free_symbols | form.free_symbols) - {ta}, key=str)
    return sympy.div(f, form, ta, *others, domain="ZZ")


# ------------------------------------------------------- tuple-layout oracle

def tuple_terms(p) -> dict:
    """An engine polynomial as {tuple monomial: coefficient}."""
    out = {}
    for mono, coeff in p.items():
        pairs = []
        for slot, e in _decode(mono):
            family, idx = _variable(slot)
            pairs.append(((FAMILIES.index(family), idx), e))
        out[tuple(reversed(pairs))] = coeff
    return out


def tuple_variable(family: str, idx: int) -> tuple:
    """The (rank, index) key of a variable in a tuple monomial."""
    return FAMILIES.index(family), idx


def _mono_mul(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va > vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def tuple_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def tuple_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def tuple_max_exponent(a: dict) -> int:
    return max((e for m in a for _, e in m), default=0)


def _render_term(mono, coeff_abs: int) -> str:
    factors = []
    for (rank, idx), e in reversed(mono):  # ascending variable order
        name = f"{FAMILIES[rank]}{idx}"
        factors.append(name if e == 1 else f"{name}^{e}")
    if not factors:
        return str(coeff_abs)
    if coeff_abs == 1:
        return "*".join(factors)
    return str(coeff_abs) + "*" + "*".join(factors)


def tuple_str(a: dict) -> str:
    """Canonical text: terms in descending (total degree, monomial) order."""
    if not a:
        return "0"
    items = sorted(a.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]), reverse=True)
    pieces = []
    for mono, coeff in items:
        body = _render_term(mono, abs(coeff))
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)


def tuple_substitute_parts(a: dict, images: dict) -> list[dict]:
    """The image of each term of a under {(rank, idx): tuple polynomial}."""
    parts = []
    for mono, coeff in a.items():
        part = {(): coeff}
        for v, e in mono:
            part = tuple_mul(part, tuple_pow(images[v], e))
        parts.append(part)
    return parts


def tuple_pow(a: dict, e: int) -> dict:
    result, base = {(): 1}, a
    while e:
        if e & 1:
            result = tuple_mul(result, base)
        e >>= 1
        base = tuple_mul(base, base) if e else base
    return result


def tuple_divide(f: dict, a: int, b: int, sign: int) -> tuple[dict, dict]:
    """(q, r) with f = q*sign*(t_a - t_b) + r and r free of t_a: a term
    c*R*t_a^e becomes c*R*t_b^e in r and sign*c*R*sum_k t_a^k t_b^(e-1-k)
    in q, from t_a^e - t_b^e = (t_a - t_b) sum_k t_a^k t_b^(e-1-k)."""
    va = tuple_variable("t", a)
    ta, tb = {((va, 1),): 1}, {((tuple_variable("t", b), 1),): 1}
    q: dict = {}
    r: dict = {}
    for mono, coeff in f.items():
        e = next((ev for v, ev in mono if v == va), 0)
        rest = {tuple((v, ev) for v, ev in mono if v != va): coeff}
        r = tuple_add(r, tuple_mul(rest, tuple_pow(tb, e)))
        for k in range(e):
            step = tuple_mul(tuple_pow(ta, k), tuple_pow(tb, e - 1 - k))
            q = tuple_add(q, tuple_mul({m: sign * c for m, c in rest.items()}, step))
    return q, r


def tuple_agree_at_diagonal(a: dict, b: dict, i: int, j: int) -> bool:
    """Whether a - b vanishes under t_j -> t_i, by merging the t_i and t_j
    exponents of every monomial."""
    ti, tj = tuple_variable("t", i), tuple_variable("t", j)
    merged: dict = {}
    for poly, sign in ((a, 1), (b, -1)):
        for mono, coeff in poly.items():
            e = sum(ev for v, ev in mono if v in (ti, tj))
            key = (tuple((v, ev) for v, ev in mono if v not in (ti, tj)), e)
            merged[key] = merged.get(key, 0) + sign * coeff
    return not any(merged.values())


def restrict_by_substitution(double_schur_value, pivots, n: int):
    """Restriction of a double Schur polynomial to the fixed point with the
    given pivot subset of Gr(k, n): expand first, then substitute
    x_s -> -t_{i_s} and u_a -> -t_{n+1-a}."""
    mapping = {}
    for family, idx in double_schur_value.variables():
        if family == "x":
            mapping[(family, idx)] = -t(pivots[idx - 1])
        else:
            mapping[(family, idx)] = -t(n + 1 - idx)
    return double_schur_value.substitute(mapping)


def excited_diagrams(lam, mu) -> set[frozenset]:
    """The excited Young diagrams of lam inside mu, each as its set of boxes
    (r, c): what lam's own diagram becomes under excited moves, found by a
    search over frozensets.  A box (r, c) moves to (r+1, c+1) when that box
    lies in mu and none of (r+1, c), (r, c+1), (r+1, c+1) is in the diagram.
    Empty when mu does not contain lam."""
    lam, mu = Partition.of(lam), Partition.of(mu)
    if not mu.contains(lam):
        return set()
    lengths = mu.parts
    start = frozenset((r, c) for r, width in enumerate(lam.parts, start=1) for c in range(1, width + 1))
    seen = {start}
    stack = [start]
    while stack:
        diagram = stack.pop()
        for r, c in diagram:
            if (
                r < len(lengths) and c < lengths[r]
                and (r + 1, c) not in diagram
                and (r, c + 1) not in diagram
                and (r + 1, c + 1) not in diagram
            ):
                moved = diagram - {(r, c)} | {(r + 1, c + 1)}
                if moved not in seen:
                    seen.add(moved)
                    stack.append(moved)
    return seen


def tableau_sum_by_products(tableaux, factor) -> Polynomial:
    """Sum over the tableaux, each its tuple of rows, of the product of
    factor(s, s + j - i) over its boxes (i, j) holding s, one generic
    Polynomial product per box and one generic sum per tableau: the engine's
    former tableau sum, whose factor gave a Polynomial."""
    total = Polynomial.zero()
    for rows in tableaux:
        term = Polynomial.one()
        for i, row in enumerate(rows, start=1):
            for j, s in enumerate(row, start=1):
                term = term * factor(s, s + j - i)
        total = total + term
    return total


def double_schur_by_products(lam, k: int) -> Polynomial:
    """The tableau sum of prod (x_s - u_{s+j-i}) over SSYT with entries <= k."""
    return tableau_sum_by_products(ssyt_enumerate(lam, k), lambda s, a: x(s) - u(a))


def ordinary_schur_by_products(lam, k: int) -> Polynomial:
    """The tableau sum of prod x_s over SSYT with entries <= k."""
    return tableau_sum_by_products(ssyt_enumerate(lam, k), lambda s, a: x(s))


def restrict_schur_by_products(lam, mu, shape) -> Polynomial:
    """The tableau sum of prod (t_{n+1-a} - t_{i_s}) over SSYT with entries
    <= k, i the pivot subset of mu: `restrict_schur` by generic products."""
    pivots = partition_to_subset(mu, shape).elements
    return tableau_sum_by_products(ssyt_enumerate(_check_partition(lam, shape), shape.k),
                                   lambda s, a: t(shape.n + 1 - a) - t(pivots[s - 1]))


@lru_cache(maxsize=None)
def schubert_by_tableau_sum(lam, shape) -> EqClass:
    """The Schubert class whose restriction at each point mu is the
    semistandard tableau sum `restrict_schur(lam, mu)`, by generic products;
    cached, so the opposite-class oracle reuses it."""
    return EqClass(shape, {J: restrict_schur_by_products(lam, subset_to_partition(J, shape), shape)
                           for J in shape.subsets()})


def opposite_by_substitution(lam, shape) -> EqClass:
    """The opposite class of lam: the tableau-sum class of the rotated box
    complement, with each subset reflected by i -> n+1-i and each value
    substituted by t_i -> t_{n+1-i}."""
    base = schubert_by_tableau_sum(Partition.of(lam).box_complement(shape), shape)
    flip = {("t", i): t(shape.n + 1 - i) for i in range(1, shape.n + 1)}
    return EqClass(shape, {J.reflected(shape.n): v.substitute(flip) for J, v in base.items()})


def gkm_check_by_division(c) -> GkmCheckResult:
    """Moment-graph test by dividing each edge's restriction difference by
    the edge weight t_a - t_b.  Each verdict is certified by ring operations
    alone: q*w + r must give back the difference, and r must be free of t_a.
    A nonzero multiple of t_a - t_b involves t_a, so w divides the
    difference exactly when r is zero."""
    violations = []
    for I, J, weight in gkm_graph(c.shape).edges:
        diff = c.restriction(I) - c.restriction(J)
        if not diff:
            continue
        top = max(i for _, i in weight.variables())
        q, r = diff.divide_with_remainder(weight)
        assert q * weight + r == diff, (I, J)
        assert ("t", top) not in r.variables(), (I, J)
        if r:
            violations.append(GkmViolation(I, J, weight, diff))
    return GkmCheckResult(not violations, tuple(violations))


def value_at(p, point) -> int:
    """A polynomial in t_1..t_n at t_i = point[i - 1]; any other variable
    raises IndexError."""
    total = 0
    for mono, coeff in p.items():
        exponents = _exponents(mono)  # the t_i exponent sits at slot i - 1
        if len(exponents) > len(point):
            raise IndexError(f"{_NAMES[len(exponents) - 1]} has no coordinate in the point")
        total += coeff * prod(map(pow, point, exponents))
    return total


def integral_at_point(c, point) -> Fraction:
    """The localization sum of c at t = point, one Fraction per fixed point:
    c(I)(p) / prod over i in I, j not in I of (p_j - p_i).  The coordinates
    of point must be distinct."""
    n = c.shape.n
    total = Fraction(0)
    for I, v in c.items():
        euler = prod(point[j - 1] - point[i - 1] for i in I.elements for j in I.missing(n))
        total += Fraction(value_at(v, point), euler)
    return total


def certificate_by_substitution(p, n: int | None = None) -> PositivityCertificate:
    """The Graham positivity certificate by one generic substitution
    t_i -> t_n - (y_i + ... + y_{n-1}) for every i <= n, with the same
    argument checks, verdict and witness text as the engine."""
    poly = Polynomial.integer(p) if isinstance(p, int) else p
    variables = poly.variables()
    bad = [(fam, idx) for fam, idx in variables if fam != "t"]
    if bad:
        raise ValueError(f"polynomial must involve only t variables, found {bad}")
    tvars = sorted(idx for _, idx in variables)
    if n is None:
        n = tvars[-1] if tvars else 0
    elif tvars and tvars[-1] > n:
        raise ValueError(f"polynomial mentions t{tvars[-1]} > t{n}")
    expansion = poly
    if tvars:
        mapping = {}
        for i in range(1, n + 1):
            image = Polynomial.variable("t", n)
            for a in range(i, n):
                image = image - Polynomial.variable("y", a)
            mapping[("t", i)] = image
        expansion = poly.substitute(mapping)
    for mono, coeff in sorted(expansion.items()):
        term = str(Polynomial({mono: coeff}))
        if any(fam == "t" for fam, _ in Polynomial({mono: 1}).variables()):
            return PositivityCertificate(False, expansion, f"t variable survives: {term}")
        if coeff < 0:
            return PositivityCertificate(False, expansion, f"negative coefficient: {term}")
    return PositivityCertificate(True, expansion, None)


def chern_ratio(J, m: int, n: int, bound: int) -> list[Polynomial]:
    """Degrees 0..bound of prod_{a not in J, a > m} (1 + t_a) divided by
    prod_{b in J, b <= m} (1 + t_b): multiply by each 1 + t_a from the top
    degree down, then divide by each 1 + t_b from degree 1 up."""
    series = [Polynomial.one()] + [Polynomial.zero()] * bound
    for a in J.missing(n):
        if a > m:
            for d in range(bound, 0, -1):
                series[d] = series[d] + series[d - 1] * t(a)
    for b in J.elements:
        if b <= m:
            for d in range(1, bound + 1):
                series[d] = series[d] - series[d - 1] * t(b)
    return series


def det_by_permutations(matrix) -> Polynomial:
    """The determinant as the sum over all permutations of the columns of
    the signed product of one entry per row; 1 for the empty matrix."""
    size = len(matrix)
    total = Polynomial.zero()
    for perm in permutations(range(size)):
        inversions = sum(1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b])
        term = Polynomial.one()
        for row in range(size):
            term = term * matrix[row][perm[row]]
        total = total - term if inversions % 2 else total + term
    return total


# ---------------------------------------------------------- token-loop reader

_POLY_TOKEN = re.compile(r"\s*(?:(?P<var>[txuy])(?P<idx>\d+)|(?P<int>\d+)|(?P<op>[\^*+\-]))")


def _tokenize_poly(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad polynomial text at {text[pos:pos+12]!r}")
            break
        if m.group("var"):
            idx = int(m.group("idx"))
            if idx < 1:
                raise ParseError(f"variable index must be >= 1 in {m.group().strip()!r}")
            tokens.append(("var", _shift(_RANK[m.group("var")], idx)))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_by_tokens(text: str) -> Polynomial:
    """Polynomial text read token by token: every token is checked first,
    then the signed products of ints and powers of variables are summed."""
    tokens = _tokenize_poly(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    out: dict = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign")
        coeff = sign
        mono = _ONE
        while True:
            kind, value = tokens[i]
            if kind == "int":
                coeff *= value
            elif kind == "var":
                exp = 1
                if i + 2 < n and tokens[i + 1] == ("op", "^") and tokens[i + 2][0] == "int":
                    exp = tokens[i + 2][1]
                    i += 2
                if exp < 1:
                    raise ParseError("exponents must be positive")
                total = ((mono >> value) & MAX_EXPONENT) + exp
                if total > MAX_EXPONENT:
                    raise MonomialOverflow(f"exponent {total} exceeds {MAX_EXPONENT}")
                mono += exp << value
            else:
                raise ParseError(f"unexpected token {value!r}")
            i += 1
            if i < n and tokens[i] == ("op", "*"):
                i += 1
                if i >= n:
                    raise ParseError("dangling '*'")
                continue
            break
        if i < n and tokens[i] not in (("op", "+"), ("op", "-")):
            raise ParseError("terms must be joined by '+' or '-'")
        out[mono] = out.get(mono, 0) + coeff
    return Polynomial(out)


# ---------------------------------------------------- descent expression reader

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
            tokens.append(("schur", _parse_partition(m.group("schur")[1:], "class expression")))
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

    def __init__(self, text: str, shape):
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
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT}")
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


def structure_constants_by_expansion(lam, mu, shape) -> BasisExpansion:
    """The coefficients of sigma_lam * sigma_mu in the Schubert basis, by the
    triangular sweep of `expand_in_basis` over the product class."""
    return expand_in_basis(schubert_class(lam, shape) * schubert_class(mu, shape))


def class_expr_by_descent(text: str, shape) -> EqClass:
    """A class expression read by recursive descent, each class built as
    soon as it is read."""
    try:
        return _ExprParser(text, shape).parse()
    except RecursionError:
        raise ParseError("class expression nests too deeply") from None
