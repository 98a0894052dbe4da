"""The fixed-point model of equivariant cohomology for Gr(k, n).

A class is stored as its tuple of restrictions, one polynomial in the t
variables per pivot subset.  Schubert and opposite restrictions are sums
over excited Young diagrams, taken as the flagged tableaux of `dschur`'s one
tableau sum: products of positive weights t_j - t_i (i < j), one per box,
with no terms that cancel.  Everything else (products, basis expansion,
positivity certificates, integration, the moment graph membership test,
determinantal classes) works on those restriction tuples with exact
arithmetic.  Structure constants build no class: the equivariant Chevalley
recursion runs on Schubert values at single points.

Class expressions: an expression is read whole into a program, with every
check made, before any class is built, so a syntax fault is reported even
after a fault that only building would find.  The program runs in three
loops.  The class loop (`parse_class_expr`) builds the class from Schubert
classes.  The degree loop (`_program_bound`) bounds its degree and finds the
fixed points where it is zero by structure, before any work, so
`integrate_expression` refuses an integral too large to write out and
chooses its route.  The value loop (`_integral_by_points`) runs the program
on integers at the points of a lattice, and the integral is interpolated
from those values, with no class built.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb, lcm, prod
from operator import le
from typing import Callable, Mapping

from .exactalg import (
    MAX_EXPONENT,
    EqschubError,
    IndexOutOfRange,
    NotDivisible,
    ParseError,
    Polynomial,
    ratf_sum,
    t,
    _agree_at_diagonal,
    _chern_series,
    _coerce,
    _coerce_strict,
    _difference_chain,
    _divide,
    _divide_series,
    _interpolate,
    _positivity_witness,
    _render,
    _top_degree_value,
)
from .dschur import _bialternant, _flagged_sum
from .ytcomb import (
    GrassmannianShape,
    Partition,
    PivotSubset,
    _Record,
    _check_partition,
    _check_subset,
    _parse_partition,
    normal_weights,
    partition_to_subset,
    subset_to_partition,
    tangent_weights,
)


class ShapeMismatch(EqschubError):
    """Two classes live on different Grassmannians."""


class NotInSpan(EqschubError):
    """Basis expansion hit a restriction not divisible by a normal weight at
    its point; ``remainder`` is the remainder of that one division."""

    def __init__(self, subset: PivotSubset, remainder: Polynomial):
        super().__init__(f"division failed at {subset}")
        self.subset = subset
        self.remainder = remainder


class NotEquivariantClass(EqschubError):
    """A tuple of restrictions that fails the moment-graph test, so it is not
    in the image of the restriction map; ``violation`` is its first failing
    edge."""

    def __init__(self, violation: GkmViolation):
        super().__init__(f"not an equivariant class: {violation}")
        self.violation = violation


class EqClass:
    """A cohomology class given by its polynomial value at each fixed point.

    Zero restrictions are not stored; rendering materializes all of them.

    A class built by `schubert_class`, `opposite_schubert_class`,
    `constant_class`, `projective_zeta` or `chern_class_taut`, or from such
    classes by +, -, * (by a class or a scalar) and **, carries a private
    mark: it is a Z[t]-combination of Schubert classes, so it passes
    `gkm_check`, and `integrate` skips that check for it.  A class given by
    its restrictions (`EqClass(...)`, `from_json_dict`) carries no mark, and
    neither does anything built from it.  `==` ignores the mark.
    """

    __slots__ = ("shape", "_restrictions", "_gkm")

    def __init__(self, shape: GrassmannianShape, restrictions: Mapping):
        self.shape = shape
        clean: dict = {}
        for I, value in restrictions.items():
            I = PivotSubset.of(I)
            if len(I.elements) != shape.k or (I.elements and I.elements[-1] > shape.n):
                raise ValueError(f"{I} is not a pivot subset for Gr({shape.k},{shape.n})")
            if I in clean:
                raise ValueError(f"restrictions name the subset {I} twice")
            p = _coerce(value)
            if p is NotImplemented:
                raise TypeError(f"restriction at {I} must be Polynomial or int")
            clean[I] = p
        self._restrictions = {I: p for I, p in clean.items() if p}
        self._gkm = False

    @staticmethod
    def _make(shape: GrassmannianShape, restrictions: dict, gkm: bool = False) -> "EqClass":
        c = EqClass.__new__(EqClass)
        c.shape = shape
        c._restrictions = restrictions
        c._gkm = gkm
        return c

    def restriction(self, I) -> Polynomial:
        return self._restrictions.get(PivotSubset.of(I), Polynomial.zero())

    def support(self) -> list[PivotSubset]:
        return sorted(self._restrictions, key=lambda s: s.elements)

    def items(self):
        return self._restrictions.items()

    def _require_same_shape(self, other: "EqClass"):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __bool__(self) -> bool:
        return bool(self._restrictions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EqClass):
            return NotImplemented
        return self.shape == other.shape and self._restrictions == other._restrictions

    def __neg__(self) -> "EqClass":
        return EqClass._make(self.shape, {I: -v for I, v in self._restrictions.items()}, self._gkm)

    def __add__(self, other) -> "EqClass":
        if not isinstance(other, EqClass):
            return NotImplemented
        self._require_same_shape(other)
        out = dict(self._restrictions)
        for I, v in other._restrictions.items():
            nv = out.get(I, Polynomial.zero()) + v
            if nv:
                out[I] = nv
            else:
                del out[I]
        return EqClass._make(self.shape, out, self._gkm and other._gkm)

    def __sub__(self, other) -> "EqClass":
        return self + (-other)

    def __mul__(self, other) -> "EqClass":
        if isinstance(other, EqClass):
            self._require_same_shape(other)
            a, b = self._restrictions, other._restrictions
            if len(a) > len(b):
                a, b = b, a
            out = {}
            for I, v in a.items():
                w = b.get(I)
                if w is not None:
                    nv = v * w
                    if nv:
                        out[I] = nv
            return EqClass._make(self.shape, out, self._gkm and other._gkm)
        scalar = _coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        out = {}
        for I, v in self._restrictions.items():
            nv = v * scalar
            if nv:
                out[I] = nv
        return EqClass._make(self.shape, out, self._gkm)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "EqClass":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not exponent:
            return constant_class(self.shape, 1)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def _texts(self) -> list[tuple[PivotSubset, str]]:
        """(I, canonical text of the restriction at I) for every pivot subset,
        rendered with one dict of factor texts across the restrictions."""
        bodies: dict = {}
        zero, values = Polynomial.zero(), self._restrictions
        return [(I, _render(values.get(I, zero), bodies)) for I in self.shape.subsets()]

    def to_json_dict(self) -> dict:
        restrictions = {str(I): text for I, text in self._texts()}
        return {"n": self.shape.n, "k": self.shape.k, "restrictions": restrictions}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "EqClass":
        """Inverse of to_json_dict.  Input of the wrong structure, a key that
        names no pivot subset of Gr(k, n) or names one twice, or a restriction
        with a variable other than t_1..t_n raises ParseError."""
        if not isinstance(data, Mapping) or not {"n", "k", "restrictions"} <= data.keys():
            raise ParseError("class JSON must be an object with keys n, k and restrictions")
        n, k, values = data["n"], data["k"], data["restrictions"]
        if type(n) is not int or type(k) is not int:
            raise ParseError("class JSON n and k must be integers")
        if not isinstance(values, Mapping) or not all(isinstance(v, str) for v in values.values()):
            raise ParseError("class JSON restrictions must map subsets to polynomial text")
        shape = GrassmannianShape(n, k)
        restrictions = {}
        for key, text in values.items():
            try:
                elements = tuple(int(s) for s in key.strip("{}").split(",") if s)
                subset = _check_subset(PivotSubset(elements), shape)
            except ValueError:
                raise ParseError(f"class JSON key {key!r} is not a pivot subset of Gr({k},{n})") from None
            if subset in restrictions:
                raise ParseError(f"class JSON names the subset {subset} twice")
            value = Polynomial.parse(text)
            variables = value.variables()
            others = sorted(f"{family}{idx}" for family, idx in variables if family != "t")
            if others:
                raise ParseError(f"class JSON restriction at {key} is not in Z[t]: {', '.join(others)}")
            top = max((idx for _, idx in variables), default=0)
            if top > n:
                raise ParseError(f"class JSON restriction at {key} mentions t{top} on Gr({k},{n})")
            restrictions[subset] = value
        return EqClass._make(shape, {I: p for I, p in restrictions.items() if p})

    def __str__(self) -> str:
        return "\n".join(f"{I}: {text}" for I, text in self._texts())

    def __repr__(self) -> str:
        return f"EqClass(Gr({self.shape.k},{self.shape.n}), {len(self._restrictions)} nonzero)"


def constant_class(shape: GrassmannianShape, value) -> EqClass:
    value = _coerce_strict(value)
    return EqClass._make(shape, {I: value for I in shape.subsets()} if value else {}, True)


_SCHUBERT_CACHE: dict = {}
_GRAPH_CACHE: dict = {}


def euler_class(I, shape: GrassmannianShape) -> Polynomial:
    """Product of the normal weights at the fixed point of I: the value there
    of the Schubert class whose pivot is I."""
    return prod(normal_weights(I, shape), start=Polynomial.one())


def tangent_euler(I, shape: GrassmannianShape) -> Polynomial:
    """Product of all tangent weights at the fixed point of I."""
    return prod(tangent_weights(I, shape), start=Polynomial.one())


def _schubert_restriction(lam: Partition, J: PivotSubset, shape: GrassmannianShape) -> Polynomial:
    """The value of `schubert_class(lam)` at J."""
    return _flagged_sum(lam, subset_to_partition(J, shape), J.elements, J.missing(shape.n)[::-1])


def schubert_class(lam, shape: GrassmannianShape) -> EqClass:
    """The class whose value at the point of mu is the sum over the excited
    Young diagrams of lam inside mu (Ikeda-Naruse, Kreiman), as flagged tableaux.

    Box (r, c) of mu carries t_{J_c} - t_{I_r}, where I_r is the r-th pivot
    of mu in ascending order and J_c the c-th largest non-pivot.  Each
    weight has J_c > I_r, so every restriction is Graham-positive; it is
    zero unless mu contains lam, and at lam itself the one diagram is lam
    and the value is the product of normal weights.
    """
    lam = _check_partition(lam, shape)
    key = (shape.n, shape.k, lam.parts)
    hit = _SCHUBERT_CACHE.get(key)
    if hit is not None:
        return hit
    values = ((J, _schubert_restriction(lam, J, shape)) for J in shape.subsets())
    result = EqClass._make(shape, {J: value for J, value in values if value}, True)
    _SCHUBERT_CACHE[key] = result
    return result


def opposite_schubert_class(lam, shape: GrassmannianShape) -> EqClass:
    """The Poincare-dual basis element for lam.

    The same flagged sum for the rotated box complement of lam, transported
    by the flips i -> n+1-i of pivot entries and t_i -> t_{n+1-i} of
    weights: at the point J the diagrams lie in the partition of J's
    reflection, and box (r, c) carries t_{J'_c} - t_{J_r}, with J_r the r-th
    largest pivot of J and J'_c the c-th smallest non-pivot.  The result is
    supported on subsets above the pivot of lam, its diagonal restriction
    there is the product of the cell weights, and
    integrate(schubert_class(lam) * opposite_schubert_class(mu)) is the
    Kronecker delta.
    """
    complement = Partition.of(lam).box_complement(shape)
    values = ((J, _flagged_sum(complement, subset_to_partition(J.reflected(shape.n), shape),
                               J.elements[::-1], J.missing(shape.n)))
              for J in shape.subsets())
    return EqClass._make(shape, {J: value for J, value in values if value}, True)


class GKMGraph(_Record):
    """Moment graph: one vertex per fixed point, one edge per invariant curve."""

    __slots__ = __match_args__ = ("shape", "vertices", "edges")

    def __init__(self, shape: GrassmannianShape, vertices: tuple[PivotSubset, ...],
                 edges: tuple[tuple[PivotSubset, PivotSubset, Polynomial], ...]):
        self._init(shape, vertices, edges)

    def to_json_dict(self) -> dict:
        return {
            "n": self.shape.n,
            "k": self.shape.k,
            "vertices": [str(v) for v in self.vertices],
            "edges": [[str(a), str(b), str(w)] for a, b, w in self.edges],
        }


def gkm_graph(shape: GrassmannianShape) -> GKMGraph:
    """Vertices are all pivot subsets; subsets differing in one element are
    joined by an edge with weight t_j - t_i.  The graph is built once per
    shape and kept in `_GRAPH_CACHE` with its edges as (I, J, weight, i, j),
    i and j the indices the weight is formed from, for `gkm_check`."""
    return _graph_entry(shape)[0]


def _graph_entry(shape: GrassmannianShape) -> tuple[GKMGraph, tuple]:
    """The `_GRAPH_CACHE` entry of shape: its graph and its edges with their
    weights' indices."""
    key = (shape.n, shape.k)
    hit = _GRAPH_CACHE.get(key)
    if hit is not None:
        return hit
    vertices = tuple(shape.subsets())
    edges = []
    for I in vertices:
        outside = I.missing(shape.n)
        for i in I.elements:
            for j in outside:
                J = PivotSubset.of(set(I.elements) - {i} | {j})
                if I.elements < J.elements:
                    edges.append((I, J, t(j) - t(i), i, j))
    hit = _GRAPH_CACHE[key] = GKMGraph(shape, vertices, tuple(e[:3] for e in edges)), tuple(edges)
    return hit


class GkmViolation(_Record):
    """An edge whose end restrictions differ by a polynomial its weight does not divide."""

    __slots__ = __match_args__ = ("start", "end", "weight", "difference")

    def __init__(self, start: PivotSubset, end: PivotSubset, weight: Polynomial,
                 difference: Polynomial):
        self._init(start, end, weight, difference)

    def __str__(self) -> str:
        return f"{self.start} -- {self.end}: {self.difference} not divisible by {self.weight}"


class GkmCheckResult(_Record):
    """Whether every moment graph edge passed, and the edges that did not."""

    __slots__ = __match_args__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[GkmViolation, ...]):
        self._init(ok, violations)

    def __bool__(self) -> bool:
        return self.ok


def gkm_check(c: EqClass) -> GkmCheckResult:
    """Edge-by-edge divisibility of restriction differences by edge weights.

    t_j - t_i divides a polynomial exactly when the polynomial vanishes under
    t_j -> t_i, so each edge is decided by that substitution, not by division.
    The edges and the indices i, j of their weights come from the graph's
    `_GRAPH_CACHE` entry, read once when the graph is built, and the
    restrictions straight from the class; an edge whose ends hold one value,
    as two zero ends do, passes unread.
    """
    values, zero = c._restrictions, Polynomial.zero()
    violations = []
    for I, J, weight, i, j in _graph_entry(c.shape)[1]:
        a, b = values.get(I, zero), values.get(J, zero)
        if a is not b and not _agree_at_diagonal(a, b, i, j):
            violations.append(GkmViolation(I, J, weight, a - b))
    return GkmCheckResult(not violations, tuple(violations))


class BasisExpansion(_Record):
    """Coefficients of a class in the Schubert basis, one per partition.

    Unhashable, as it holds a dict.
    """

    __slots__ = __match_args__ = ("shape", "coeffs")
    __hash__ = None

    def __init__(self, shape: GrassmannianShape, coeffs: dict):
        self._init(shape, coeffs)

    def reconstruct(self) -> EqClass:
        total = EqClass(self.shape, {})
        for lam, coeff in self.coeffs.items():
            total = total + schubert_class(lam, self.shape) * coeff
        return total

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(lam): str(c) for lam, c in self.coeffs.items()}}


def expand_in_basis(c: EqClass) -> BasisExpansion:
    """Triangular sweep through the partitions in weight order.

    The basis class of mu vanishes at every point whose partition does not
    contain mu, so when the sweep reaches lam every smaller partition has
    been subtracted and only lam's own class is left at lam's point.  Its
    coefficient is the remaining restriction there divided, one normal
    weight t_j - t_i at a time, by the diagonal value; the scaled class is
    subtracted at the points after lam.  A failed division means the class
    is not a Z[t]-combination of Schubert classes.
    """
    shape = c.shape
    remaining = dict(c.items())
    coeffs: dict = {}
    for lam in shape.partitions():
        I = partition_to_subset(lam, shape)
        q = remaining.pop(I, None)
        if q is None:
            continue
        for w in normal_weights(I, shape):
            q, r = q.divide_with_remainder(w)
            if r:
                raise NotInSpan(I, r)
        coeffs[lam] = q
        for J, v in schubert_class(lam, shape).items():
            if J != I:
                nv = remaining.get(J, Polynomial.zero()) - q * v
                if nv:
                    remaining[J] = nv
                else:
                    remaining.pop(J, None)
    return BasisExpansion(shape, coeffs)


def _pivot_sum(J: PivotSubset) -> Polynomial:
    """The sum of t_j over J.  The value of `schubert_class((1,))` at J is the
    sum of t_j over the top k indices less this sum, so sigma_1|J - sigma_1|I
    is the pivot sum of I less that of J."""
    return sum(map(t, J.elements), Polynomial.zero())


def structure_constants(lam, mu, shape: GrassmannianShape) -> BasisExpansion:
    """The coefficients c^nu_{lam,mu} of sigma_lam * sigma_mu in the Schubert
    basis, by the equivariant Chevalley recursion, with no class built.

    The equivariant Chevalley rule is sigma_1 * sigma_lam = sigma_1|lam *
    sigma_lam + the sum of sigma_{lam+} over the lam+ that add one box to
    lam.  Comparing the coefficients of sigma_nu in sigma_1 * (sigma_lam *
    sigma_mu) = (sigma_1 * sigma_lam) * sigma_mu gives, for nu != lam,

        (sigma_1|nu - sigma_1|lam) c^nu_{lam,mu} = sum over the lam+ inside nu
            of c^nu_{lam+,mu} - sum over the nu- containing lam of c^{nu-}_{lam,mu},

    with c^lam_{lam,mu} the value of sigma_mu at lam's point, and c^nu_{lam,mu}
    zero unless nu contains lam and mu and has weight at most |lam| + |mu|;
    Knutson-Tao (Duke Math. J. 119, 2003) characterize the equivariant
    structure constants of Gr(k, n) by this recursion.  As c is symmetric in
    lam and mu, the heavier one is lam.  Every lam' containing lam is visited
    by decreasing weight, and each nu containing lam' and mu by increasing
    weight, so both sums are known when c^nu_{lam',mu} is formed.  The
    divisor is the sum of t_j over lam's pivots less that over nu's
    (`_pivot_sum`, formed once per call for each partition containing lam,
    the only ones visited): a nonzero linear form with coefficients +-1,
    divided out by `_divide`; a remainder raises NotDivisible.  The
    coefficients come in `shape.partitions()` order, zeros dropped, as
    `expand_in_basis` of the product gives them.

    The values sigma_mu|lam' are read from sigma_mu's class when the caller
    has already built it (it is in `_SCHUBERT_CACHE`), and are otherwise
    summed at each lam' alone; no class is built or stored either way.
    """
    lam, mu = _check_partition(lam, shape), _check_partition(mu, shape)
    if lam.weight < mu.weight:
        lam, mu = mu, lam
    k, partitions = shape.k, shape.partitions()
    rows = {nu: nu.padded(k) for nu in partitions}
    containing = [nu for nu in partitions if nu.contains(lam)]
    subsets = {nu: partition_to_subset(nu, shape) for nu in containing}
    sums = {nu: _pivot_sum(J) for nu, J in subsets.items()}
    held = _SCHUBERT_CACHE.get((shape.n, shape.k, mu.parts))
    # c^nu_{lam',mu} as {lam': {nu: value}}, partitions as padded rows: level
    # for the lam' of the weight being visited, above for those one box heavier
    level, above, weight = {}, {}, None
    for outer in reversed(containing):
        if outer.weight != weight:
            level, above, weight = {}, level, outer.weight
        lp, cap, J = rows[outer], outer.weight + mu.weight, subsets[outer]
        floor = tuple(map(max, lp, mu.padded(k)))
        table = level[lp] = {}
        if floor == lp:  # lam' contains mu
            table[lp] = (held._restrictions[J] if held is not None
                         else _schubert_restriction(mu, J, shape))
        for nu in partitions:
            if nu.weight > cap:
                break
            p = rows[nu]
            if p == lp or not all(map(le, floor, p)):
                continue
            rhs = Polynomial.zero()
            for i in range(k):
                if lp[i] < p[i] and (not i or lp[i - 1] > lp[i]):  # lam'+ inside nu
                    value = above[lp[:i] + (lp[i] + 1,) + lp[i + 1:]].get(p)
                    if value:
                        rhs = rhs + value
                if p[i] > lp[i] and (i == k - 1 or p[i + 1] < p[i]):  # nu- containing lam'
                    value = table.get(p[:i] + (p[i] - 1,) + p[i + 1:])
                    if value:
                        rhs = rhs - value
            if rhs:
                q, r = _divide(rhs, sums[outer] - sums[nu])
                if r:
                    raise NotDivisible(r, q)
                table[p] = q
    table = level[rows[lam]]
    return BasisExpansion(shape, {nu: table[rows[nu]] for nu in partitions if rows[nu] in table})


class PositivityCertificate(_Record):
    """Outcome of rewriting a t-polynomial in consecutive differences.

    ``expansion`` is the image after the change of basis; on success it
    involves only y variables and has nonnegative coefficients.  On failure
    ``witness`` names the offending monomial, including any surviving t
    variable, which is reported rather than discarded.
    """

    __slots__ = __match_args__ = ("ok", "expansion", "witness")

    def __init__(self, ok: bool, expansion: Polynomial, witness: str | None):
        self._init(ok, expansion, witness)

    def __bool__(self) -> bool:
        return self.ok


def positivity_certificate(p, n: int | None = None) -> PositivityCertificate:
    """Rewrite p under t_i -> t_n - (y_i + ... + y_{n-1}) and inspect the
    result; y_i stands for t_{i+1} - t_i.

    The map is applied as the chain of one-variable shifts t_1 -> t_2 - y_1,
    ..., t_{n-1} -> t_n - y_{n-1}, each one binomial expansion per term.
    Succeeds iff no t variable survives and every coefficient is
    nonnegative.
    """
    poly = _coerce(p)
    if poly is NotImplemented:
        raise TypeError("expected Polynomial or int")
    tvars = sorted(idx for fam, idx in poly.variables() if fam == "t")
    bad = [(fam, idx) for fam, idx in poly.variables() if fam != "t"]
    if bad:
        raise ValueError(f"polynomial must involve only t variables, found {bad}")
    if n is None:
        n = tvars[-1] if tvars else 0
    elif tvars and tvars[-1] > n:
        raise ValueError(f"polynomial mentions t{tvars[-1]} > t{n}")
    expansion = _difference_chain(poly, n) if tvars else poly
    witness = _positivity_witness(expansion)
    return PositivityCertificate(witness is None, expansion, witness)


def integrate(c: EqClass) -> Polynomial:
    """Sum of restriction / tangent-weight-product over all fixed points.

    The tuple must be a class: it carries the mark of a class built from
    Schubert classes (see `EqClass`) or passes `gkm_check`, and otherwise
    NotEquivariantClass names its first failing edge.  For Gr(k, n) such a
    class is a Z[t]-combination of Schubert classes (Goresky-Kottwitz-
    MacPherson), so it integrates to a polynomial, and the integral of the
    Schubert class of lam is 1 for the full box and 0 otherwise.  Three
    routes follow, the first two for classes in the t variables alone:

    - degree at most dim = k(n-k): components of degree below dim
      integrate to 0 and the degree-dim component to an integer, read off
      exactly at one integer point;
    - degree above dim, nonzero at no more than half of the fixed points:
      the coefficient of the full box in `expand_in_basis`;
    - everything else: `ratf_sum` of each restriction over its tangent
      weights.

    Basis expansion beats the rational sum on sparse classes and loses on
    dense ones (a power of sigma_1 is nonzero at every point but one).
    """
    if not c._gkm:
        violations = gkm_check(c).violations
        if violations:
            raise NotEquivariantClass(violations[0])
    shape = c.shape
    if all(family == "t" for _, v in c.items() for family, _ in v.variables()):
        top = _top_degree_integral(c)
        if top is not None:
            return Polynomial.integer(top)
        if 2 * len(c._restrictions) <= comb(shape.n, shape.k):
            box = Partition((shape.box_width,) * shape.k)
            return expand_in_basis(c).coeffs.get(box, Polynomial.zero())
    return ratf_sum((v, tangent_weights(I, shape)) for I, v in c.items())


def _top_degree_integral(c: EqClass) -> int | None:
    """The integral of c when no term has degree above dim, else None: the
    `_localization_sum` of each restriction's degree-dim part at (1, ..., n),
    with one dict of monomial values shared across the restrictions."""
    n, dim = c.shape.n, c.shape.dimension
    terms, values = [], {}
    for I, value in c.items():
        top = _top_degree_value(value, dim, values)
        if top is None:
            return None
        if top:
            terms.append((top, I.elements, I.missing(n)))
    return _localization_sum(terms, tuple(range(1, n + 1)))


def _localization_sum(terms, point) -> int:
    """The sum of a class's value / e_J(p) for each (value, J, complement of J)
    in terms, over one common integer denominator; e_J is `tangent_euler`."""
    terms = [(value, prod(point[j - 1] - point[i - 1] for i in pivots for j in others))
             for value, pivots, others in terms if value]
    common = lcm(*(euler for _, euler in terms))
    total, rest = divmod(sum(value * (common // euler) for value, euler in terms), common)
    if rest:
        raise AssertionError(f"integral of a class is not an integer at {point}: {rest}/{common} left")
    return total


MAX_INTEGRAL_TERMS = 1_000_000
_CROSSOVER = 40


def integrate_expression(text: str, shape: GrassmannianShape) -> Polynomial:
    """The integral of the class expression `text` on `shape`.  The degree
    loop bounds the class's degree by D before anything is built, so the
    integral has degree at most d = max(0, D - dim) in t_1..t_n and at most
    C(n + d, d) terms; EqschubError refuses it when that is above
    MAX_INTEGRAL_TERMS.  At each fixed point where the class is not zero by
    structure, the value loop evaluates the expression at the C(n + d, d)
    points of a lattice, and `integrate` of the built class handles a
    restriction of up to C(n - 1 + D, D) terms against dim tangent weights.
    The value loop is taken when d = 0, or when the second count is at least
    _CROSSOVER times the first, a crossover measured from Gr(1,2) to Gr(3,7)."""
    program = _class_program(text, shape)
    degree, mask = _program_bound(program, shape)
    d = max(0, degree - shape.dimension)
    terms = comb(shape.n + d, d)
    if terms > MAX_INTEGRAL_TERMS:
        raise EqschubError(f"the integral may reach degree {d} and {terms} terms; "
                           f"at most {MAX_INTEGRAL_TERMS} terms are accepted")
    if not d or comb(shape.n - 1 + degree, degree) * shape.dimension >= _CROSSOVER * terms:
        return _integral_by_points(program, shape, mask, d)
    return integrate(_class_of(program, shape))


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
    return _run_program(program, lambda op, arg: schubert_class(arg, shape) if op == "s"
                        else projective_zeta(shape.n) if op == "zeta" else constant_class(shape, arg))


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
    every degree above that is refused; so chained powers stay small numbers."""
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


def _built_degree(program: list[tuple], shape: GrassmannianShape) -> int:
    """The degree loop with each integer literal and zero exponent read as 1: a
    bound on every class the class loop builds, zero products and powers too."""
    return _program_bound([(op, arg or 1) if op in ("int", "^") else (op, arg)
                           for op, arg in program], shape)[0]


def _integral_by_points(program: list[tuple], shape: GrassmannianShape, mask: int,
                        d: int) -> Polynomial:
    """The value loop: the integral of the program's class, of degree at most
    d, interpolated from its `_localization_sum` at integer points p over the
    fixed points in mask, with the program run on integers: `_bialternant`
    for each Schubert class, -p_i for zeta at {i} and each literal itself."""
    n = shape.n
    fixed = [(J.elements, J.missing(n)) for j, J in enumerate(shape.subsets()) if mask >> j & 1]
    schuberts = {arg for op, arg in program if op == "s"}

    def value_at(pivots, point):
        values = {lam: _bialternant(lam.parts, pivots, point) for lam in schuberts}
        return _run_program(program, lambda op, arg: values[arg] if op == "s"
                            else -point[pivots[0] - 1] if op == "zeta" else arg)

    return _interpolate(lambda point: _localization_sum(
        ((value_at(pivots, point), pivots, others) for pivots, others in fixed), point), n, d)


def projective_zeta(n: int) -> EqClass:
    """The hyperplane class of projective (n-1)-space as Gr(1, n): its value
    at the i-th coordinate point is -t_i."""
    if n < 2:
        raise ValueError("need n >= 2")
    shape = GrassmannianShape(n, 1)
    return EqClass._make(shape, {PivotSubset((i,)): -t(i) for i in range(1, n + 1)}, True)


_BUNDLES = ("S", "S_dual", "Q")


def chern_class_taut(bundle: str, i: int, shape: GrassmannianShape) -> EqClass:
    """Equivariant Chern classes of the tautological bundles.

    At the fixed point of J the fiber weights are {t_j : j in J} for S,
    their negatives for S_dual, and {t_j : j not in J} for Q; the class
    value is the i-th elementary symmetric polynomial of those weights, read
    as the degree-i term of the product of 1 + w over the weights w.
    """
    if bundle not in _BUNDLES:
        raise ValueError(f"bundle must be one of {_BUNDLES}")
    rank = shape.k if bundle in ("S", "S_dual") else shape.n - shape.k
    if i < 0 or i > rank:
        raise IndexOutOfRange(f"c_{i} of a rank {rank} bundle")
    sign = -1 if bundle == "S_dual" else 1
    values = ((J, _chern_series(J.missing(shape.n) if bundle == "Q" else J.elements, i, sign)[i])
              for J in shape.subsets())
    return EqClass._make(shape, {J: value for J, value in values if value}, True)


def _minors(matrix, selections):
    """For each selection, a tuple of c row labels of a matrix with c
    columns, the determinant of those rows in order.  Each is expanded along
    its last column, so sub-minors lie on the first, low-degree columns;
    each is formed once and kept, the maximal minors are not."""
    kept = {}

    def minor(rows: tuple) -> Polynomial:
        last, value = len(rows) - 1, Polynomial.zero() if rows else Polynomial.one()
        for q, row in enumerate(rows):
            entry = matrix[row][last]
            if entry:
                rest = rows[:q] + rows[q + 1:]
                sub = kept.get(rest)
                if sub is None:
                    sub = kept[rest] = minor(rest)
                if sub:
                    value = value - entry * sub if (last - q) % 2 else value + entry * sub
        return value

    return map(minor, selections)


def _kl_rows(lam: Partition, k: int) -> tuple[int, ...]:
    """The rows p = lam_i - i, i = 1..k, that lam selects from `_kl_matrix`."""
    return tuple(part - i for i, part in enumerate(lam.padded(k), start=1))


def _kl_matrix(J: PivotSubset, shape: GrassmannianShape, rows) -> dict:
    """Row p, for each p of the descending rows, of the Kempf-Laksov matrix
    at J: degrees p+1..p+k of c(Q - C^m), m = (n-k) - p.  Q has weights t_a,
    a not in J, so c(Q - C^m) = c(Q - C^(m-1)) / (1 + t_m) whether or not m
    is a pivot: one series c(Q) up to the largest degree read is divided by
    1 + t_m for each new m as p falls."""
    k, width = shape.k, shape.n - shape.k
    series = _chern_series(J.missing(shape.n), rows[0] + k)
    m, matrix = 0, {}
    for p in rows:
        while m < width - p:
            m += 1
            series = _divide_series(series, m)
        matrix[p] = [series[d] if d >= 0 else Polynomial.zero() for d in range(p + 1, p + k + 1)]
    return matrix


def kempf_laksov_class(lam, shape: GrassmannianShape) -> EqClass:
    """Determinantal (degeneracy locus) construction of a Schubert class.

    At each fixed point J the entry in row i, column j is the coefficient of
    degree lambda_i + j - i in the Chern series c(Q - C^m) of Q minus the
    trivial bundle spanned by the first m = (n-k) - lambda_i + i coordinate
    lines; the class is the k x k determinant of those entries.  Row i is
    row p = lambda_i - i of one n x k matrix per point (`_kl_matrix`), so
    every partition's determinant is a maximal minor of it (`_minors`), here
    lambda's alone: k * 2^(k-1) entry products, not k * k!.
    """
    lam = _check_partition(lam, shape)
    rows = _kl_rows(lam, shape.k)
    return EqClass(shape, {J: next(_minors(_kl_matrix(J, shape, rows), (rows,)))
                           for J in shape.subsets()})


def kl_mismatches(shape: GrassmannianShape) -> list:
    """The partitions whose determinantal and Schubert classes differ, one
    point at a time: each maximal minor of the point's matrix (rows p in
    [-k, n-k-1]) against the Schubert restriction, dropped before the next."""
    lams = shape.partitions()
    selections = [_kl_rows(lam, shape.k) for lam in lams]
    every = tuple(range(shape.n - shape.k - 1, -shape.k - 1, -1))
    bad = set()
    for J in shape.subsets():
        minors = _minors(_kl_matrix(J, shape, every), selections)
        bad.update(lam for lam, minor in zip(lams, minors)
                   if lam not in bad and minor != _schubert_restriction(lam, J, shape))
    return [lam for lam in lams if lam in bad]
