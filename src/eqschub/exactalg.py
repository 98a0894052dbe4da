"""Exact sparse arithmetic over the integers.

The one value type is `Polynomial`: a multivariate polynomial with arbitrary
precision integer coefficients over the named variable families t, x, u, y;
`Polynomial.parse` reads back the text `str` writes, one pattern match per
term.  There is one writer, `_render`, for a polynomial alone and for every
restriction of a class, which shares one dict of factor texts across them.
There is one division: synthetic division by a linear form in t
with a coefficient +-1, which leaves a remainder free of that variable.
The public `divide_with_remainder` and `exact_divide` take only a torus
weight t_a - t_b, itself a Polynomial; the structure constants also divide
by differences of two sums of t variables.  `ratf_sum` adds fractions whose
denominators are products of weights and divides the sum by them, so it
returns a polynomial or raises NotDivisible.  A monomial is one int with a
16-bit exponent field per variable, so indices go up to MAX_INDEX = 32 and
exponents up to MAX_EXPONENT = 65535; past either, MonomialOverflow is
raised.  The change to
consecutive differences y_i = t_{i+1} - t_i behind Graham positivity
certificates is a chain of one-variable shifts on that layout, not a generic
substitution.  So are the two steps of a truncated Chern series behind the
tautological and Kempf-Laksov classes: multiplying by 1 +- t_a and dividing
by 1 + t_a each add t_a's field to the monomials of one degree to form the
next.  A polynomial in t of bounded degree can also be rebuilt from its
integer values on a lattice, by Newton's forward differences.  No other
module reads a monomial's fields; `dschur`'s tableau sum, the one other
writer, multiplies by a variable by adding the monomial `_monomial` gives
it, and leaves an overflow to `_check_product`.  All values are
immutable and every operation is a pure function, so the whole module is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
import struct
from collections import Counter
from functools import reduce
from math import comb, factorial, prod
from operator import or_
from typing import Iterable, Mapping, Union

FAMILIES = ("t", "x", "u", "y")
_RANK = {name: rank for rank, name in enumerate(FAMILIES)}
_T = _RANK["t"]
_Y = _RANK["y"]

# A monomial is one int holding a 16-bit exponent field per variable: the
# variable with index i in the family of rank r owns the field at slot
# r*32 + i - 1, bits 16*slot upwards.  A product of monomials is the sum of
# their ints.  Higher variables sit in higher fields, so comparing ints is
# lexicographic order for t1 < t2 < ... < x1 < ... < u1 < ... < y1 < ...,
# and the pair (total degree, monomial) compares as graded lexicographic
# order.  Exponents are at most MAX_EXPONENT and indices at most MAX_INDEX;
# anything beyond raises MonomialOverflow instead of carrying into the next
# field.
_BITS = 16
MAX_INDEX = 32
MAX_EXPONENT = (1 << _BITS) - 1
_SLOTS = len(FAMILIES) * MAX_INDEX
_T_FIELDS = (1 << (MAX_INDEX * _BITS)) - 1
# Bit 15 of every field: two monomials whose fields all have it clear have a
# product whose fields fit.
_HIGH = sum(1 << (_BITS * slot + _BITS - 1) for slot in range(_SLOTS))
# A position above every field, where a merged exponent can grow unbounded.
_WIDE = _SLOTS * _BITS
_NAMES = tuple(f"{family}{index}" for family in FAMILIES for index in range(1, MAX_INDEX + 1))
# _UNPACK[n] reads the n lowest fields from a little-endian byte string.
_UNPACK = tuple(struct.Struct(f"<{n}H").unpack for n in range(_SLOTS + 1))
_ONE = 0
_FACTOR = r"(?:[txuy]\d+(?:\s*\^\s*\d+)?|\d+)"
_TERM = re.compile(rf"\s*((?:[+-]\s*)*)({_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*(?=[+-]|\Z)")

PolyLike = Union["Polynomial", int]


class EqschubError(Exception):
    """Base class for the domain errors raised by this package."""


class ParseError(EqschubError):
    """Malformed polynomial or expression text."""


class NotDivisible(EqschubError):
    """Division left a nonzero remainder."""

    def __init__(self, remainder: "Polynomial", quotient: "Polynomial"):
        super().__init__("exact division failed")
        self.remainder = remainder
        self.quotient = quotient


class UnmappedVariable(EqschubError):
    """substitute() met a variable the mapping does not cover."""


class IndexOutOfRange(EqschubError):
    """An index argument fell outside its allowed range."""


class MonomialOverflow(EqschubError):
    """A variable index above MAX_INDEX, or an exponent above MAX_EXPONENT."""


def _shift(rank: int, index: int) -> int:
    """Bit position of the exponent field of a variable."""
    if index > MAX_INDEX:
        raise MonomialOverflow(f"variable {FAMILIES[rank]}{index}: indices go up to {MAX_INDEX}")
    return (rank * MAX_INDEX + index - 1) * _BITS


def _monomial(family: str, index: int) -> int:
    """The monomial of one variable: the lowest bit of its field."""
    if family not in _RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    return 1 << _shift(_RANK[family], index)


def _exponents(mono: int) -> tuple[int, ...]:
    """The exponent field of every slot from 0 up to the highest nonzero one;
    slot r*32 + i - 1 holds variable i of the family of rank r."""
    size = (mono.bit_length() + _BITS - 1) // _BITS
    return _UNPACK[size](mono.to_bytes(2 * size, "little"))


def _decode(mono: int) -> list[tuple[int, int]]:
    """The (slot, exponent) pairs of a monomial's nonzero fields, in
    ascending variable order; _NAMES[slot] names the variable."""
    return [(slot, e) for slot, e in enumerate(_exponents(mono)) if e]


def _variable(slot: int) -> tuple[str, int]:
    return FAMILIES[slot // MAX_INDEX], slot % MAX_INDEX + 1


def _mono_degree(mono: int) -> int:
    return sum(_exponents(mono))


def _high(*term_maps: dict) -> int:
    """Bit 15 of each field in which some monomial of the maps has an
    exponent of 2^15 or more; while it is clear, a sum of two exponents of
    that field fits."""
    return reduce(or_, (reduce(or_, terms, 0) for terms in term_maps)) & _HIGH


def _check_product(a: dict, b: dict) -> None:
    """Raise MonomialOverflow if some product of a monomial of a with one of
    b has an exponent above MAX_EXPONENT; both maps are nonempty."""
    for slot, _ in _decode(_high(a, b)):
        shift = slot * _BITS
        top = max((m >> shift) & MAX_EXPONENT for m in a) + max((m >> shift) & MAX_EXPONENT for m in b)
        if top > MAX_EXPONENT:
            raise MonomialOverflow(f"exponent {top} of {_NAMES[slot]} exceeds {MAX_EXPONENT}")


def _widen(terms: dict, shift: int) -> dict:
    """Move the field at shift to _WIDE, above every field, where adding to
    it cannot carry into another variable."""
    step = (1 << _WIDE) - (1 << shift)
    return {m + ((m >> shift) & MAX_EXPONENT) * step: c for m, c in terms.items()}


def _narrow(terms: dict, shift: int) -> dict:
    """Move the exponent at _WIDE back to the field at shift."""
    out = {}
    for m, c in terms.items():
        e = m >> _WIDE
        if e > MAX_EXPONENT:
            raise MonomialOverflow(f"exponent {e} exceeds {MAX_EXPONENT}")
        out[m - (e << _WIDE) + (e << shift)] = c
    return out


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
        return cls._make({_monomial(family, index): 1})

    def items(self):
        """Iterate (monomial, coefficient) pairs; a monomial is a packed int
        that _decode splits into its variables."""
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
        terms = self._terms
        if not terms or len(terms) == 1 and _ONE in terms:
            return hash(self.constant_term())  # a constant equals its int, so hash like it
        return hash(frozenset(terms.items()))

    def __reduce__(self):
        return Polynomial, (self._terms,)

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
        out = dict(self._terms)
        for m, c in other._terms.items():
            nc = out.get(m, 0) - c
            if nc:
                out[m] = nc
            else:
                del out[m]
        return Polynomial._make(out)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if a:
            _check_product(a, b)
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
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
        # The largest exponent of p^e is e times that of p; refuse before
        # squaring builds powers with many terms.
        top = max((max(_exponents(m), default=0) for m in self._terms), default=0)
        if top * exponent > MAX_EXPONENT:
            raise MonomialOverflow(f"exponent {top * exponent} exceeds {MAX_EXPONENT}")
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
        # A field of the OR of all monomials is nonzero iff its variable occurs.
        return {_variable(slot) for slot, _ in _decode(reduce(or_, self._terms, 0))}

    def substitute(self, mapping: Mapping[tuple, PolyLike]) -> "Polynomial":
        """Apply the ring homomorphism sending each (family, index) variable
        to the given polynomial.  Every variable occurring here must be
        mapped, otherwise UnmappedVariable is raised.

        A product of nonzero polynomials has, in each variable, the sum of
        the factors' degrees there, so MonomialOverflow is raised before any
        expansion when the image of some monomial has an exponent above
        MAX_EXPONENT; a monomial with a zero image contributes nothing.
        """
        images = {}
        for (family, index), img in mapping.items():
            if family not in _RANK:
                raise ValueError(f"unknown variable family {family!r}")
            img = _coerce_strict(img)
            if 1 <= index <= MAX_INDEX:  # no monomial holds any other index
                images[_RANK[family] * MAX_INDEX + index - 1] = img
        tops: dict = {}  # slot -> (field, largest exponent there) of its image
        live = []  # (coefficient, factors) of each term whose image is not zero
        for mono, coeff in self._terms.items():
            factors = _decode(mono)[::-1]
            degrees: dict = {}
            for slot, e in factors:
                img = images.get(slot)
                if img is None:
                    raise UnmappedVariable(f"no image for {_NAMES[slot]}")
                if slot not in tops:
                    tops[slot] = [
                        (field, max((m >> field * _BITS) & MAX_EXPONENT for m in img._terms))
                        for field, _ in _decode(reduce(or_, img._terms, 0))
                    ]
                for field, d in tops[slot]:
                    degrees[field] = degrees.get(field, 0) + e * d
            if all(images[slot] for slot, _ in factors):
                for field, d in degrees.items():
                    if d > MAX_EXPONENT:
                        raise MonomialOverflow(f"exponent {d} of {_NAMES[field]} exceeds {MAX_EXPONENT}")
                live.append((coeff, factors))
        pow_cache: dict = {}
        out: dict = {}
        for coeff, factors in live:
            part = Polynomial.one()
            for slot, e in factors:
                key = (slot, e)
                pw = pow_cache.get(key)
                if pw is None:
                    pw = images[slot] ** e
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
        ZeroDivisionError and any other divisor ValueError.  q and r come from
        `_divide`: r is self with t_a set to t_b, so it is zero exactly when
        the weight divides self.
        """
        return _divide(self, divisor, _weight_indices(divisor))

    def exact_divide(self, divisor: PolyLike) -> "Polynomial":
        """Return q with q * divisor == self, or raise NotDivisible."""
        q, r = self.divide_with_remainder(_coerce_strict(divisor))
        if r:
            raise NotDivisible(r, q)
        return q

    def __str__(self) -> str:
        return _render(self, {})

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Read text such as ``-3*t1^2*t2 + t3``, one `_TERM` match per term:

            text := term (sign term)*     term := sign* factor ('*' factor)*
            factor := int | family index ('^' exponent)?     sign := + | -

        where family is t, x, u or y, the rest are decimal digits with index
        and exponent at least 1, and whitespace may stand between symbols.
        Other text, or a digit run longer than int() reads, raises ParseError
        from the term where it goes off; an index above MAX_INDEX or exponent
        above MAX_EXPONENT, MonomialOverflow."""
        if not text.strip():
            raise ParseError("empty polynomial text")
        out, pos = {}, 0
        try:
            while pos < len(text):
                m = _TERM.match(text, pos)
                if m is None:
                    raise ParseError(f"bad polynomial text at {text[pos:pos+12]!r}")
                coeff, mono = (-1) ** m[1].count("-"), _ONE
                for factor in m[2].split("*"):
                    name, _, exp = factor.strip().partition("^")
                    if name[0] not in _RANK:
                        coeff *= int(name)
                        continue
                    index, exp = int(name[1:]), int(exp or 1)
                    if index < 1 or exp < 1:
                        raise ParseError(f"bad polynomial text at {text[pos:pos+12]!r}")
                    shift = _shift(_RANK[name[0]], index)
                    total = ((mono >> shift) & MAX_EXPONENT) + exp
                    if total > MAX_EXPONENT:
                        raise MonomialOverflow(f"exponent {total} exceeds {MAX_EXPONENT}")
                    mono += exp << shift
                out[mono] = out.get(mono, 0) + coeff
                pos = m.end()
        except ValueError:  # int() of more digits than it reads
            raise ParseError(f"digit run too long in polynomial text at {text[pos:pos+12]!r}") from None
        return cls(out)


def _render(p: Polynomial, bodies: dict) -> str:
    """Canonical text: terms by total degree, then monomial, both descending,
    each its coefficient's sign and magnitude (left out when it is 1 and the
    term is not constant) and its factors.

    bodies maps a monomial to the text of its factors and is filled here, so
    the restrictions of one class, which share many monomials, pass one dict.
    Both sorts are by C-level keys: the monomials descending, then, stably,
    their degrees descending, read as m % MAX_EXPONENT, which is the total
    degree of m while that is below MAX_EXPONENT; the sum of the fields of
    the OR of all monomials bounds every total degree, and where it reaches
    MAX_EXPONENT the degrees are summed field by field.
    """
    terms = p._terms
    if not terms:
        return "0"
    order = sorted(terms, reverse=True)
    exact = _mono_degree(reduce(or_, order)) >= MAX_EXPONENT
    order.sort(key=_mono_degree if exact else MAX_EXPONENT.__rmod__, reverse=True)
    pieces = []
    append = pieces.append
    for m, c, body in zip(order, map(terms.__getitem__, order), map(bodies.get, order)):
        if body is None:
            body = bodies[m] = "*".join([_NAMES[slot] if e == 1 else f"{_NAMES[slot]}^{e}"
                                         for slot, e in enumerate(_exponents(m)) if e])
        if c < 0:
            append(" - ")
            c = -c
        else:
            append(" + ")
        append(f"{c}*{body}" if c != 1 and m else body or str(c))
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


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


def _t_index(mono: int) -> int:
    """i when the monomial is t_i, else 0."""
    if mono & (mono - 1) or not mono & _T_FIELDS:
        return 0
    position = mono.bit_length() - 1
    return 0 if position % _BITS else position // _BITS + 1


def _weight_indices(divisor) -> tuple[int, int, int]:
    """(a, b, s) for a divisor s*(t_a - t_b) with a > b and s = +-1."""
    divisor = _coerce_strict(divisor)
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    terms = sorted(divisor._terms.items(), reverse=True)
    if len(terms) == 2:
        (ma, ca), (mb, cb) = terms
        a, b = _t_index(ma), _t_index(mb)
        if ca in (1, -1) and cb == -ca and a and b:
            return a, b, ca
    raise ValueError(f"divisor must be a weight t_a - t_b, got {divisor}")


def _divide(p: Polynomial, form, weight=None) -> tuple[Polynomial, Polynomial]:
    """The unique (q, r) with p = q*form + r and r free of t_a, for a linear
    form s*t_a + R in t, s = +-1 and a as large as it can be; zero raises
    ZeroDivisionError and any other form ValueError.  `weight` is the
    (a, b, s) of a form s*(t_a - t_b) already read by `_weight_indices`.

    Synthetic division in t_a: with p = sum_e F_e t_a^e, q's coefficient of
    t_a^(e-1) is s*(F_e - R*q_e), from the top e down, and r = F_0 - R*q_0.
    If R is c*t_b, t_b's field is widened while p has an exponent of 2^15 or
    more there or at t_a, and only an exponent of q or r above MAX_EXPONENT
    raises MonomialOverflow.  With more terms in R, each step adds at most 1
    to the other fields, so MonomialOverflow is raised up front only when p
    has such an exponent and a total degree above MAX_EXPONENT.
    """
    if weight:  # -s*R is t_b
        sa, sign, rest = _shift(_T, weight[0]), weight[2], [(1 << _shift(_T, weight[1]), 1)]
    else:
        if not form:
            raise ZeroDivisionError("division by the zero polynomial")
        indices = {m: _t_index(m) for m in form._terms}
        units = [(i, m) for m, i in indices.items() if i and form._terms[m] in (1, -1)]
        if not all(indices.values()) or not units:
            raise ValueError(f"divisor must be a linear form in t with a coefficient +-1, got {form}")
        _, lead = max(units)
        sign, sa = form._terms[lead], lead.bit_length() - 1
        rest = [(m, -sign * c) for m, c in form._terms.items() if m != lead]  # -s*R
    terms, wide = p._terms, None
    if len(rest) == 1:
        sb = rest[0][0].bit_length() - 1
        if _high(terms) & (MAX_EXPONENT << sa | MAX_EXPONENT << sb):
            wide, terms, rest = sb, _widen(terms, sb), [(1 << _WIDE, rest[0][1])]
    elif len(rest) > 1 and _high(terms) and max(map(_mono_degree, terms)) > MAX_EXPONENT:
        raise MonomialOverflow(f"degree {max(map(_mono_degree, terms))} exceeds {MAX_EXPONENT}")
    # Level e holds s*F_e - s*R*q_e = q_(e-1), each term already times
    # t_a^(e-1), so it joins the quotient as it is; level 0 ends as s*r.
    unit, levels = 1 << sa, {}
    for mono, coeff in terms.items():
        e = (mono >> sa) & MAX_EXPONENT
        levels.setdefault(e, {})[mono - unit if e else mono] = sign * coeff
    top = max(levels, default=0)
    quotient, level = {}, levels.get(top, {})
    for e in range(top, 0, -1):
        quotient.update(level)
        down = unit if e > 1 else 0  # the remainder's terms keep no t_a
        above, level = level, levels.get(e - 1, {})
        for rm, rc in rest:
            step = rm - down
            for mono, coeff in above.items():
                key = mono + step
                nc = level.get(key, 0) + rc * coeff
                if nc:
                    level[key] = nc
                else:
                    del level[key]
    remainder = level if sign > 0 else {mono: -coeff for mono, coeff in level.items()}
    if wide is not None:
        quotient, remainder = _narrow(quotient, wide), _narrow(remainder, wide)
    return Polynomial._make(quotient), Polynomial._make(remainder)


def _agree_at_diagonal(a: Polynomial, b: Polynomial, i: int, j: int) -> bool:
    """Whether a - b vanishes under t_j -> t_i: each monomial has its t_i
    exponent moved onto t_j's field, and the coefficients of monomials that
    meet there add up."""
    si, sj = _shift(_T, i), _shift(_T, j)
    ta, tb = a._terms, b._terms
    if _high(ta, tb) & (MAX_EXPONENT << si | MAX_EXPONENT << sj):
        ta, tb, sj = _widen(ta, sj), _widen(tb, sj), _WIDE
    move = (1 << sj) - (1 << si)
    merged: dict = {}
    for mono, coeff in ta.items():
        key = mono + ((mono >> si) & MAX_EXPONENT) * move
        merged[key] = merged.get(key, 0) + coeff
    for mono, coeff in tb.items():
        key = mono + ((mono >> si) & MAX_EXPONENT) * move
        merged[key] = merged.get(key, 0) - coeff
    return not any(merged.values())


def _difference_chain(p: Polynomial, n: int) -> Polynomial:
    """The image of a polynomial in t_1..t_n under t_i -> t_n - (y_i + ... +
    y_{n-1}), with y_i standing for t_{i+1} - t_i.

    The map is the chain t_1 -> t_2 - y_1, then t_2 -> t_3 - y_2, ..., then
    t_{n-1} -> t_n - y_{n-1}.  Step i is one pass over the terms: a term with
    t_i exponent a expands (t_{i+1} - y_i)^a by the binomial theorem, moving
    a - j of the exponent onto t_{i+1}'s field and j onto y_i's.  The image
    of a monomial holds t_n to its total degree, so MonomialOverflow is
    raised up front when some total degree passes MAX_EXPONENT.
    """
    _shift(_T, n)  # MonomialOverflow for n > MAX_INDEX, before any work
    terms = p._terms
    top = max(map(_mono_degree, terms), default=0)
    if top > MAX_EXPONENT:
        raise MonomialOverflow(f"exponent {top} of t{n} exceeds {MAX_EXPONENT}")
    rows: dict = {}  # a -> the coefficients (-1)^j C(a, j) of (t - y)^a
    for i in range(1, n):
        st, sn = _shift(_T, i), _shift(_T, i + 1)
        move = (1 << sn) - (1 << st)
        step = (1 << _shift(_Y, i)) - (1 << sn)  # t_{i+1} -> y_i
        out: dict = {}
        for mono, coeff in terms.items():
            a = (mono >> st) & MAX_EXPONENT
            if not a:
                out[mono] = out.get(mono, 0) + coeff
                continue
            row = rows.get(a)
            if row is None:
                row = rows[a] = [(-1) ** j * comb(a, j) for j in range(a + 1)]
            key = mono + a * move
            for b in row:
                out[key] = out.get(key, 0) + coeff * b
                key += step
        terms = {m: c for m, c in out.items() if c}
    return Polynomial._make(terms)


def _chern_series(indices: Iterable[int], bound: int, sign: int = 1) -> list[Polynomial]:
    """Degrees 0..bound of the product of 1 + sign*t_a over the indices a,
    each factor multiplied in from the top degree down.

    A product by t_a adds the field bit of t_a to every monomial with no
    overflow check: degree d has no exponent above d <= bound, and every
    caller's bound is below its n <= MAX_INDEX, far below MAX_EXPONENT.
    """
    series = [Polynomial.one()] + [Polynomial.zero()] * bound
    for a in indices:
        bit = 1 << _shift(_T, a)
        for d in range(bound, 0, -1):
            series[d] = series[d] + Polynomial._make({m + bit: sign * c for m, c in series[d - 1].items()})
    return series


def _divide_series(series: list[Polynomial], a: int) -> list[Polynomial]:
    """A series from `_chern_series` divided by 1 + t_a: from degree 1 up,
    degree d less t_a times the quotient's degree d - 1."""
    bit = 1 << _shift(_T, a)
    out = [series[0]]
    for p in series[1:]:
        out.append(p - Polynomial._make({m + bit: c for m, c in out[-1].items()}))
    return out


def _top_degree_value(p: Polynomial, dim: int, values: dict) -> int | None:
    """The degree-dim component of a polynomial in t alone at t_i = i; None
    when some term has degree above dim.

    values maps a monomial to its value at t_i = i and is filled here, so the
    restrictions of one class, which share many monomials, pass one dict.
    Degrees are read as m % MAX_EXPONENT, as `_render` reads them, and
    summed field by field where the OR of the monomials reaches MAX_EXPONENT.
    """
    terms = p._terms
    if not terms:
        return 0
    exact = _mono_degree(reduce(or_, terms)) >= MAX_EXPONENT
    top = 0
    for mono, degree in zip(terms, map(_mono_degree if exact else MAX_EXPONENT.__rmod__, terms)):
        if degree > dim:
            return None
        if degree == dim:
            value = values.get(mono)
            if value is None:
                exps = _exponents(mono)  # the t_i exponent sits at slot i - 1
                value = values[mono] = prod(map(pow, range(1, len(exps) + 1), exps))
            top += terms[mono] * value
    return top


def _interpolate(value, n: int, d: int) -> Polynomial:
    """The polynomial in t_1..t_n of total degree at most d that takes the
    integer value(p) at each point p = b + alpha, alpha in N^n with
    |alpha| <= d, where b_i = (i - 1)(d + 1); so each point has distinct,
    increasing coordinates.  value must be such a polynomial in Z[t].

    Newton's forward-difference formula in several variables (Chung-Yao,
    SIAM J. Numer. Anal. 14, 1977; Gasca-Sauer, Adv. Comput. Math. 12, 2000)
    writes the polynomial as the sum over the lattice of Delta^alpha f(b)
    times the product of binomials C(t_i - b_i, alpha_i).  The differences
    are taken one coordinate at a time along each lattice line, which never
    leaves the lattice.  For f in Z[t], alpha! divides Delta^alpha f(b), and
    the quotient is the coefficient of the falling factorials
    prod (t_i - b_i)_(alpha_i), which Horner's rule turns into powers of t_i,
    again one coordinate at a time.  All of it is exact integer arithmetic:
    an inexact division raises AssertionError.
    """
    _shift(_T, n)  # MonomialOverflow for n > MAX_INDEX, before any work
    if d > MAX_EXPONENT:
        raise MonomialOverflow(f"exponent {d} exceeds {MAX_EXPONENT}")
    alphas = [()]  # in lexicographic order, so each line runs up its coordinate
    for _ in range(n):
        alphas = [a + (e,) for a in alphas for e in range(d + 1 - sum(a))]
    base = [i * (d + 1) for i in range(n)]
    coeffs = {a: value([b + e for b, e in zip(base, a)]) for a in alphas}
    lines = []
    for i in range(n):
        grouped: dict = {}
        for a in alphas:
            grouped.setdefault(a[:i] + a[i + 1:], []).append(a)
        lines.append(grouped.values())
    for i in range(n):
        for line in lines[i]:
            column = [coeffs[a] for a in line]
            for level in range(1, len(column)):
                for j in range(len(column) - 1, level - 1, -1):
                    column[j] -= column[j - 1]
            coeffs.update(zip(line, column))
    for a in alphas:
        quotient, rest = divmod(coeffs[a], prod(map(factorial, a)))
        if rest:
            raise AssertionError(f"difference at {a} not divisible by its factorial: {rest} left")
        coeffs[a] = quotient
    for i in range(n):
        for line in lines[i]:
            column = [coeffs[a] for a in line]
            powers = column[-1:]
            for j in range(len(column) - 2, -1, -1):
                node = base[i] + j
                powers = [up - node * same for up, same in zip([0] + powers, powers + [0])]
                powers[0] += column[j]
            coeffs.update(zip(line, powers))
    shifts = [_shift(_T, i) for i in range(1, n + 1)]
    return Polynomial._make({sum(e << s for e, s in zip(a, shifts)): c
                             for a, c in coeffs.items() if c})


def _positivity_witness(p: Polynomial) -> str | None:
    """The first term in monomial order that keeps a t variable or has a
    negative coefficient, as a failed positivity certificate names it; None
    when there is none."""
    for mono, coeff in sorted(p._terms.items()):
        if mono & _T_FIELDS:
            return f"t variable survives: {Polynomial._make({mono: coeff})}"
        if coeff < 0:
            return f"negative coefficient: {Polynomial._make({mono: coeff})}"
    return None


def t(i: int) -> Polynomial:
    return Polynomial.variable("t", i)


def x(i: int) -> Polynomial:
    return Polynomial.variable("x", i)


def u(i: int) -> Polynomial:
    return Polynomial.variable("u", i)


def y(i: int) -> Polynomial:
    return Polynomial.variable("y", i)


def ratf_sum(pieces: Iterable[tuple[PolyLike, Iterable[Polynomial]]]) -> Polynomial:
    """The polynomial sum of numerator / product of weights over (numerator,
    weights) pieces, each weight a polynomial +-(t_a - t_b).

    The common denominator holds each weight, up to orientation, as often as
    the piece that holds it most often.  Each numerator is multiplied by the
    weights it lacks from it, the products are added, and the sum is divided
    by each weight of the common denominator in turn.  Raises NotDivisible
    when the sum is not a polynomial, ZeroDivisionError for a zero weight and
    ValueError for any other weight that is not +-(t_a - t_b), as division
    does.
    """
    terms, common = [], Counter()
    for num, weights in pieces:
        sign, count = 1, Counter()
        for w in weights:
            a, b, s = _weight_indices(w)
            sign *= s
            count[a, b] += 1
        terms.append((_coerce_strict(num), sign, count))
        common |= count
    forms = {(a, b): t(a) - t(b) for a, b in common}
    total = Polynomial.zero()
    for num, sign, count in terms:
        for key, mult in (common - count).items():
            num = num * forms[key] ** mult
        total = total + num if sign > 0 else total - num
    for key, mult in common.items():
        for _ in range(mult):
            total = total.exact_divide(forms[key])
    return total


def elementary_symmetric(i: int, forms: Iterable[PolyLike]) -> Polynomial:
    """The i-th elementary symmetric polynomial of the given polynomials or
    ints; e_0 = 1."""
    forms = [_coerce_strict(f) for f in forms]
    if i < 0 or i > len(forms):
        raise IndexOutOfRange(f"e_{i} of {len(forms)} forms")
    table = [Polynomial.one()] + [Polynomial.zero()] * len(forms)
    for count, f in enumerate(forms, 1):
        for j in range(count, 0, -1):
            table[j] = table[j] + table[j - 1] * f
    return table[i]

