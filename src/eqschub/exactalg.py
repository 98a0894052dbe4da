"""Exact sparse arithmetic over the integers.

Three value types live here: multivariate polynomials with arbitrary
precision integer coefficients over the named variable families t, x, u, y;
linear forms in the t variables; and rational functions whose denominators
are kept as multisets of weights t_a - t_b and are never expanded.  The only
division is by such a weight.  All values
are immutable and every operation is a pure function, so the whole module
is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Mapping, Union

FAMILIES = ("t", "x", "u", "y")
_RANK = {name: rank for rank, name in enumerate(FAMILIES)}
_T = _RANK["t"]

# A monomial is a tuple of ((rank, index), exponent) pairs with positive
# exponents, sorted by descending variable.  With that layout the pair
# (total degree, monomial) compares as graded lexicographic order for
# t1 < t2 < ... < x1 < ... < u1 < ... < y1 < ...
_ONE = ()

PolyLike = Union["Polynomial", int]


class EqschubError(Exception):
    """Base class for the domain errors raised by this package."""


class ParseError(EqschubError):
    """Malformed polynomial or expression text."""


class NotDivisible(EqschubError):
    """Division by a weight left a nonzero remainder."""

    def __init__(self, remainder: "Polynomial", quotient: "Polynomial"):
        super().__init__("exact division failed")
        self.remainder = remainder
        self.quotient = quotient


class NotPolynomial(EqschubError):
    """A rational function kept denominator factors after full cancellation."""

    def __init__(self, rational: "FactoredRational"):
        super().__init__(f"denominator does not clear: {rational}")
        self.rational = rational


class UnmappedVariable(EqschubError):
    """substitute() met a variable the mapping does not cover."""


class IndexOutOfRange(EqschubError):
    """An index argument fell outside its allowed range."""


def _mono_degree(mono) -> int:
    return sum(e for _, e in mono)


def _mono_key(mono):
    return (_mono_degree(mono), mono)


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
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
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class Polynomial:
    """Sparse multivariate polynomial with exact integer coefficients.

    Stored terms never carry a zero coefficient, so two polynomials are
    equal exactly when their term maps are equal.  The degree of the zero
    polynomial is -inf.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        if terms:
            self._terms = {m: c for m, c in terms.items() if c}
        else:
            self._terms = {}

    @staticmethod
    def _make(terms: dict) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._make({_ONE: 1})

    @classmethod
    def integer(cls, value: int) -> "Polynomial":
        return cls._make({_ONE: value} if value else {})

    @classmethod
    def variable(cls, family: str, index: int) -> "Polynomial":
        if family not in _RANK:
            raise ValueError(f"unknown variable family {family!r}")
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        return cls._make({(((_RANK[family], index), 1),): 1})

    def items(self):
        """Iterate (monomial, coefficient) pairs; internal key format."""
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.integer(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial._make({m: -c for m, c in self._terms.items()})

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                del out[m]
        return Polynomial._make(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _mono_mul(ma, mb)
                nc = out.get(m, 0) + ca * cb
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        return Polynomial._make(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self._terms:
            return float("-inf")
        return max(_mono_degree(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {_mono_degree(m) for m in self._terms}
        return len(degrees) <= 1

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial._make(
            {m: c for m, c in self._terms.items() if _mono_degree(m) == d}
        )

    def constant_term(self) -> int:
        return self._terms.get(_ONE, 0)

    def variables(self) -> set:
        """The set of (family, index) pairs occurring in this polynomial."""
        seen = set()
        for m in self._terms:
            for (rank, idx), _ in m:
                seen.add((FAMILIES[rank], idx))
        return seen

    def substitute(self, mapping: Mapping[tuple, PolyLike]) -> "Polynomial":
        """Apply the ring homomorphism sending each (family, index) variable
        to the given polynomial.  Every variable occurring here must be
        mapped, otherwise UnmappedVariable is raised.
        """
        images = {}
        for (family, index), img in mapping.items():
            if family not in _RANK:
                raise ValueError(f"unknown variable family {family!r}")
            images[(_RANK[family], index)] = _coerce_strict(img)
        pow_cache: dict = {}
        out: dict = {}
        for mono, coeff in self._terms.items():
            part = Polynomial.one()
            for v, e in mono:
                img = images.get(v)
                if img is None:
                    rank, idx = v
                    raise UnmappedVariable(f"no image for {FAMILIES[rank]}{idx}")
                key = (v, e)
                pw = pow_cache.get(key)
                if pw is None:
                    pw = img ** e
                    pow_cache[key] = pw
                part = part * pw
            for m, c in part._terms.items():
                nc = out.get(m, 0) + coeff * c
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        return Polynomial._make(out)

    def divide_with_remainder(self, divisor: PolyLike):
        """Division by a weight: returns (q, r) with self = q*divisor + r.

        The divisor must be s*(t_a - t_b) with a > b and s = +-1; zero raises
        ZeroDivisionError and any other divisor ValueError.  The remainder is
        self with t_a set to t_b, so it is zero exactly when the weight
        divides self.  The quotient comes from synthetic division in t_a:
        writing self = sum_e F_e t_a^e, its coefficient of t_a^(e-1) is
        sum_{e' >= e} F_e' t_b^(e'-e).  These are the unique q and r with r
        free of t_a, the result of graded-lex division by the leading term t_a.
        """
        a, b, sign = _weight_indices(divisor)
        ta, tb = (_T, a), (_T, b)
        levels: dict = {}
        for mono, coeff in self._terms.items():
            # Variables are sorted descending: hi > t_a > mid > t_b > lo.
            size = len(mono)
            i = 0
            while i < size and mono[i][0] > ta:
                i += 1
            hi = mono[:i]
            e = 0
            if i < size and mono[i][0] == ta:
                e = mono[i][1]
                i += 1
            j = i
            while j < size and mono[j][0] > tb:
                j += 1
            mid = mono[i:j]
            g = 0
            if j < size and mono[j][0] == tb:
                g = mono[j][1]
                j += 1
            levels.setdefault(e, []).append(((hi, mid, mono[j:], e + g), coeff))
        # merged holds sum_{e' >= e} F_e' with t_a -> t_b, keyed by the rest of
        # the monomial and the combined exponent d of t_a and t_b.
        merged: dict = {}
        quotient: dict = {}
        for e in range(max(levels, default=0), -1, -1):
            for key, coeff in levels.get(e, ()):
                nc = merged.get(key, 0) + coeff
                if nc:
                    merged[key] = nc
                else:
                    del merged[key]
            if not e:
                break
            ta_part = ((ta, e - 1),) if e > 1 else ()
            for (hi, mid, lo, d), coeff in merged.items():
                tb_part = ((tb, d - e),) if d > e else ()
                quotient[hi + ta_part + mid + tb_part + lo] = sign * coeff
        remainder = {
            hi + mid + (((tb, d),) if d else ()) + lo: coeff
            for (hi, mid, lo, d), coeff in merged.items()
        }
        return Polynomial._make(quotient), Polynomial._make(remainder)

    def exact_divide(self, divisor: PolyLike) -> "Polynomial":
        """Return q with q * divisor == self, or raise NotDivisible."""
        q, r = self.divide_with_remainder(_coerce_strict(divisor))
        if r:
            raise NotDivisible(r, q)
        return q

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        items = sorted(self._terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True)
        pieces = []
        for mono, coeff in items:
            body = _render_term(mono, abs(coeff))
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse the canonical rendering, e.g. ``-3*t1^2*t2 + t3``."""
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
            saw_factor = False
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
                    mono = _mono_mul(mono, ((value, exp),))
                else:
                    raise ParseError(f"unexpected token {value!r}")
                saw_factor = True
                i += 1
                if i < n and tokens[i] == ("op", "*"):
                    i += 1
                    if i >= n:
                        raise ParseError("dangling '*'")
                    continue
                break
            if not saw_factor:
                raise ParseError("empty term")
            if i < n and tokens[i] not in (("op", "+"), ("op", "-")):
                raise ParseError("terms must be joined by '+' or '-'")
            nc = out.get(mono, 0) + coeff
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
        return cls._make(out)


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
            tokens.append(("var", (_RANK[m.group("var")], idx)))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


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


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.integer(value)
    return NotImplemented


def _coerce_strict(value) -> Polynomial:
    p = _coerce(value)
    if p is NotImplemented:
        raise TypeError(f"expected Polynomial or int, got {type(value).__name__}")
    return p


def _weight_indices(divisor) -> tuple[int, int, int]:
    """(a, b, s) for a divisor s*(t_a - t_b) with a > b and s = +-1."""
    divisor = _coerce_strict(divisor)
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    terms = sorted(divisor._terms.items(), reverse=True)
    if len(terms) == 2:
        (ma, ca), (mb, cb) = terms
        if (
            ca in (1, -1)
            and cb == -ca
            and len(ma) == len(mb) == 1
            and ma[0][1] == mb[0][1] == 1
            and ma[0][0][0] == mb[0][0][0] == _T
        ):
            return ma[0][0][1], mb[0][0][1], ca
    raise ValueError(f"divisor must be a weight t_a - t_b, got {divisor}")


def _agree_at_diagonal(a: Polynomial, b: Polynomial, i: int, j: int) -> bool:
    """Whether a - b vanishes under t_j -> t_i: each monomial has its t_i and
    t_j exponents merged, and the coefficients of merged monomials add up."""
    ti, tj = (_T, i), (_T, j)
    merged: dict = {}
    for poly, sign in ((a, 1), (b, -1)):
        for mono, coeff in poly.items():
            e = 0
            rest = []
            for v, ev in mono:
                if v == ti or v == tj:
                    e += ev
                else:
                    rest.append((v, ev))
            key = (tuple(rest), e)
            merged[key] = merged.get(key, 0) + sign * coeff
    return not any(merged.values())


def t(i: int) -> Polynomial:
    return Polynomial.variable("t", i)


def x(i: int) -> Polynomial:
    return Polynomial.variable("x", i)


def u(i: int) -> Polynomial:
    return Polynomial.variable("u", i)


def y(i: int) -> Polynomial:
    return Polynomial.variable("y", i)


class LinearForm:
    """A nonzero integer form in the t variables, value sign * sum(c_i t_i).

    The stored coefficient vector is normalized so its first nonzero entry
    is positive; the actual orientation sits in ``sign``.  There is no
    constant term.
    """

    __slots__ = ("coeffs", "sign")

    def __init__(self, coeffs: Mapping[int, int], sign: int = 1):
        items = tuple(sorted((i, c) for i, c in coeffs.items() if c))
        if not items:
            raise ValueError("the zero linear form is not allowed")
        if any(i < 1 for i, _ in items):
            raise ValueError("t indices must be >= 1")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if items[0][1] < 0:
            items = tuple((i, -c) for i, c in items)
            sign = -sign
        self.coeffs = items
        self.sign = sign

    @classmethod
    def weight(cls, j: int, i: int) -> "LinearForm":
        """The form t_j - t_i."""
        if i == j:
            raise ValueError("weight needs distinct indices")
        return cls({j: 1, i: -1})

    def core(self) -> "LinearForm":
        """The sign-normalized form, dropping the orientation."""
        if self.sign == 1:
            return self
        return LinearForm(dict(self.coeffs), 1)

    def to_polynomial(self) -> Polynomial:
        terms = {(((_T, i), 1),): self.sign * c for i, c in self.coeffs}
        return Polynomial._make(terms)

    def __neg__(self) -> "LinearForm":
        return LinearForm(dict(self.coeffs), -self.sign)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs and self.sign == other.sign

    def __hash__(self):
        return hash((self.coeffs, self.sign))

    def __str__(self) -> str:
        return str(self.to_polynomial())

    def __repr__(self) -> str:
        return f"LinearForm({str(self)!r})"


@lru_cache(maxsize=None)
def _core_poly(coeffs: tuple) -> Polynomial:
    terms = {(((_T, i), 1),): c for i, c in coeffs}
    return Polynomial._make(terms)


class FactoredRational:
    """sign * numerator / product of weights t_a - t_b with multiplicities.

    Denominators are never expanded; equality is decided by
    cross-multiplication rather than by any canonical form.
    """

    __slots__ = ("numerator", "denominator", "sign")

    def __init__(self, numerator: PolyLike, factors: Iterable[LinearForm] = (), sign: int = 1):
        num = _coerce_strict(numerator)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        denom: dict = {}
        for f in factors:
            if tuple(c for _, c in f.coeffs) != (1, -1):
                raise ValueError(f"denominator forms must be weights t_a - t_b, got {f}")
            sign *= f.sign
            denom[f.coeffs] = denom.get(f.coeffs, 0) + 1
        if not num:
            denom, sign = {}, 1
        self.numerator = num
        self.denominator = denom
        self.sign = sign

    @staticmethod
    def _raw(num: Polynomial, denom: dict, sign: int) -> "FactoredRational":
        r = FactoredRational.__new__(FactoredRational)
        if not num:
            denom, sign = {}, 1
        r.numerator = num
        r.denominator = denom
        r.sign = sign
        return r

    @classmethod
    def zero(cls) -> "FactoredRational":
        return cls._raw(Polynomial.zero(), {}, 1)

    def denominator_forms(self) -> list:
        """The denominator multiset as (form, multiplicity), deterministic order."""
        return [(LinearForm(dict(c)), m) for c, m in sorted(self.denominator.items())]

    def _denominator_poly(self) -> Polynomial:
        prod = Polynomial.one()
        for coeffs, mult in sorted(self.denominator.items()):
            prod = prod * _core_poly(coeffs) ** mult
        return prod

    def cancelled(self) -> "FactoredRational":
        """Divide out every denominator factor that divides the numerator."""
        num = self.numerator
        if not num:
            return FactoredRational.zero()
        denom = dict(self.denominator)
        for coeffs in sorted(denom):
            poly = _core_poly(coeffs)
            while denom[coeffs] > 0:
                try:
                    num = num.exact_divide(poly)
                except NotDivisible:
                    break
                denom[coeffs] -= 1
            if denom[coeffs] == 0:
                del denom[coeffs]
        return FactoredRational._raw(num, denom, self.sign)

    def to_polynomial(self) -> Polynomial:
        return ratf_to_polynomial(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        lhs = self.numerator * other._denominator_poly()
        rhs = other.numerator * self._denominator_poly()
        if self.sign != other.sign:
            rhs = -rhs
        return lhs == rhs

    def __str__(self) -> str:
        num = str(self.numerator)
        if self.sign == -1:
            num = f"-({num})"
        if not self.denominator:
            return num
        parts = []
        for coeffs, mult in sorted(self.denominator.items()):
            body = f"({_core_poly(coeffs)})"
            parts.append(body if mult == 1 else f"{body}^{mult}")
        return f"({num}) / ({'*'.join(parts)})"

    def __repr__(self) -> str:
        return f"FactoredRational({str(self)!r})"


def ratf_sum(terms: Iterable[FactoredRational]) -> FactoredRational:
    """Sum over the common denominator (the multiset maximum), then cancel."""
    terms = list(terms)
    common: dict = {}
    for r in terms:
        for coeffs, mult in r.denominator.items():
            if mult > common.get(coeffs, 0):
                common[coeffs] = mult
    total = Polynomial.zero()
    for r in terms:
        piece = r.numerator if r.sign == 1 else -r.numerator
        for coeffs, mult in common.items():
            need = mult - r.denominator.get(coeffs, 0)
            if need:
                piece = piece * _core_poly(coeffs) ** need
        total = total + piece
    return FactoredRational._raw(total, common, 1).cancelled()


def ratf_to_polynomial(r: FactoredRational) -> Polynomial:
    """The numerator once the denominator clears; NotPolynomial otherwise."""
    c = r.cancelled()
    if c.denominator:
        raise NotPolynomial(c)
    return c.numerator if c.sign == 1 else -c.numerator


def elementary_symmetric(i: int, forms: Iterable[LinearForm]) -> Polynomial:
    """The i-th elementary symmetric polynomial of the given forms; e_0 = 1."""
    forms = list(forms)
    if i < 0 or i > len(forms):
        raise IndexOutOfRange(f"e_{i} of {len(forms)} forms")
    table = [Polynomial.one()] + [Polynomial.zero()] * len(forms)
    count = 0
    for f in forms:
        fp = f.to_polynomial()
        count += 1
        for j in range(count, 0, -1):
            table[j] = table[j] + table[j - 1] * fp
    return table[i]


def exact_divide(num: PolyLike, div: PolyLike) -> Polynomial:
    return _coerce_strict(num).exact_divide(div)


def substitute(p: PolyLike, mapping: Mapping[tuple, PolyLike]) -> Polynomial:
    return _coerce_strict(p).substitute(mapping)
