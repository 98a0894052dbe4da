"""The fixed-point model of equivariant cohomology for Gr(k, n).

A class is stored as its tuple of restrictions, one polynomial in the t
variables per pivot subset.  Schubert classes are built by specializing
double Schur polynomials; everything else (products, basis expansion,
structure constants, positivity certificates, integration, the moment
graph membership test, determinantal classes) works on those restriction
tuples with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping

from .dschur import restrict_schur
from .exactalg import (
    FAMILIES,
    EqschubError,
    FactoredRational,
    IndexOutOfRange,
    LinearForm,
    NotDivisible,
    ParseError,
    Polynomial,
    elementary_symmetric,
    ratf_sum,
    ratf_to_polynomial,
    _coerce,
)
from .ytcomb import (
    DoesNotFitBox,
    GrassmannianShape,
    PivotSubset,
    as_partition,
    as_subset,
    bruhat_leq,
    normal_weights,
    subset_to_partition,
    tangent_weights,
)


class ShapeMismatch(EqschubError):
    """Two classes live on different Grassmannians."""


class NotInSpan(EqschubError):
    """Basis expansion hit a restriction not divisible by its diagonal value."""

    def __init__(self, subset: PivotSubset, remainder: Polynomial):
        super().__init__(f"division failed at {subset}")
        self.subset = subset
        self.remainder = remainder


class EqClass:
    """A cohomology class given by its polynomial value at each fixed point.

    Zero restrictions are not stored; rendering materializes all of them.
    """

    __slots__ = ("shape", "_restrictions")

    def __init__(self, shape: GrassmannianShape, restrictions: Mapping):
        self.shape = shape
        clean: dict = {}
        for I, value in restrictions.items():
            I = as_subset(I)
            if len(I.elements) != shape.k or (I.elements and I.elements[-1] > shape.n):
                raise ValueError(f"{I} is not a pivot subset for Gr({shape.k},{shape.n})")
            p = _coerce(value)
            if p is NotImplemented:
                raise TypeError(f"restriction at {I} must be Polynomial or int")
            if p:
                clean[I] = p
        self._restrictions = clean

    def restriction(self, I) -> Polynomial:
        return self._restrictions.get(as_subset(I), Polynomial.zero())

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
        out = {I: -v for I, v in self._restrictions.items()}
        return EqClass(self.shape, out)

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
        result = EqClass.__new__(EqClass)
        result.shape = self.shape
        result._restrictions = out
        return result

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
            result = EqClass.__new__(EqClass)
            result.shape = self.shape
            result._restrictions = out
            return result
        scalar = _coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        out = {}
        for I, v in self._restrictions.items():
            nv = v * scalar
            if nv:
                out[I] = nv
        result = EqClass.__new__(EqClass)
        result.shape = self.shape
        result._restrictions = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "EqClass":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = constant_class(self.shape, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def to_json_dict(self) -> dict:
        restrictions = {
            str(I): str(self.restriction(I)) for I in self.shape.subsets()
        }
        return {"n": self.shape.n, "k": self.shape.k, "restrictions": restrictions}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "EqClass":
        """Inverse of to_json_dict; input of the wrong structure raises ParseError."""
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
            elems = tuple(int(s) for s in key.strip("{}").split(",") if s)
            restrictions[PivotSubset(elems)] = Polynomial.parse(text)
        return cls(shape, restrictions)

    def __str__(self) -> str:
        lines = [f"{I}: {self.restriction(I)}" for I in self.shape.subsets()]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"EqClass(Gr({self.shape.k},{self.shape.n}), {len(self._restrictions)} nonzero)"


def constant_class(shape: GrassmannianShape, value) -> EqClass:
    return EqClass(shape, {I: value for I in shape.subsets()})


_EULER_CACHE: dict = {}
_SCHUBERT_CACHE: dict = {}
_GRAPH_CACHE: dict = {}


def euler_class(I, shape: GrassmannianShape) -> Polynomial:
    """Product of the normal weights at the fixed point of I."""
    I = as_subset(I)
    key = (shape.n, shape.k, I.elements)
    hit = _EULER_CACHE.get(key)
    if hit is not None:
        return hit
    prod = Polynomial.one()
    for w in normal_weights(I, shape):
        prod = prod * w.to_polynomial()
    _EULER_CACHE[key] = prod
    return prod


def tangent_euler(I, shape: GrassmannianShape) -> Polynomial:
    """Product of all tangent weights at the fixed point of I."""
    prod = Polynomial.one()
    for w in tangent_weights(I, shape):
        prod = prod * w.to_polynomial()
    return prod


def schubert_class(lam, shape: GrassmannianShape) -> EqClass:
    """The class whose value at each fixed point is the double Schur
    specialization; its diagonal restriction is the product of normal
    weights and it vanishes at subsets not below its own pivot.
    """
    lam = as_partition(lam)
    if not lam.fits(shape):
        raise DoesNotFitBox(f"{lam} does not fit in {shape.k} x {shape.box_width}")
    key = (shape.n, shape.k, lam.parts)
    hit = _SCHUBERT_CACHE.get(key)
    if hit is not None:
        return hit
    restrictions = {
        J: restrict_schur(lam, subset_to_partition(J, shape), shape)
        for J in shape.subsets()
    }
    result = EqClass(shape, restrictions)
    _SCHUBERT_CACHE[key] = result
    return result


def opposite_schubert_class(lam, shape: GrassmannianShape) -> EqClass:
    """The Poincare-dual basis element for lam.

    Transport of the Schubert class of the rotated box complement under
    the simultaneous flips i -> n+1-i of pivot entries and t_i -> t_{n+1-i}
    of values.  The result is supported on subsets above the pivot of lam,
    its diagonal restriction there is the product of the cell weights, and
    integrate(schubert_class(lam) * opposite_schubert_class(mu)) is the
    Kronecker delta.
    """
    lam = as_partition(lam)
    if not lam.fits(shape):
        raise DoesNotFitBox(f"{lam} does not fit in {shape.k} x {shape.box_width}")
    base = schubert_class(lam.box_complement(shape), shape)
    flip = {("t", i): Polynomial.variable("t", shape.n + 1 - i) for i in range(1, shape.n + 1)}
    restrictions = {
        J.reflected(shape.n): v.substitute(flip) for J, v in base.items()
    }
    return EqClass(shape, restrictions)


@dataclass(frozen=True)
class GKMGraph:
    """Moment graph: one vertex per fixed point, one edge per invariant curve."""

    shape: GrassmannianShape
    vertices: tuple[PivotSubset, ...]
    edges: tuple[tuple[PivotSubset, PivotSubset, LinearForm], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.shape.n,
            "k": self.shape.k,
            "vertices": [str(v) for v in self.vertices],
            "edges": [[str(a), str(b), str(w)] for a, b, w in self.edges],
        }


def gkm_graph(shape: GrassmannianShape) -> GKMGraph:
    """Vertices are all pivot subsets; subsets differing in one element are
    joined by an edge with weight t_j - t_i.  Tangent weights at every
    vertex are checked to be pairwise non-proportional.
    """
    key = (shape.n, shape.k)
    hit = _GRAPH_CACHE.get(key)
    if hit is not None:
        return hit
    vertices = tuple(shape.subsets())
    edges = []
    for I in vertices:
        weights = tangent_weights(I, shape)
        cores = {w.coeffs for w in weights}
        if len(cores) != len(weights):
            raise EqschubError(f"proportional tangent weights at {I}")
        outside = I.missing(shape.n)
        for i in I.elements:
            for j in outside:
                J = PivotSubset.of(set(I.elements) - {i} | {j})
                if I.elements < J.elements:
                    edges.append((I, J, LinearForm.weight(j, i)))
    graph = GKMGraph(shape, vertices, tuple(edges))
    _GRAPH_CACHE[key] = graph
    return graph


@dataclass(frozen=True)
class GkmViolation:
    start: PivotSubset
    end: PivotSubset
    weight: LinearForm
    difference: Polynomial

    def __str__(self) -> str:
        return f"{self.start} -- {self.end}: {self.difference} not divisible by {self.weight}"


@dataclass(frozen=True)
class GkmCheckResult:
    ok: bool
    violations: tuple[GkmViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


def gkm_check(c: EqClass) -> GkmCheckResult:
    """Edge-by-edge divisibility of restriction differences by edge weights."""
    graph = gkm_graph(c.shape)
    violations = []
    for I, J, weight in graph.edges:
        diff = c.restriction(I) - c.restriction(J)
        if not diff:
            continue
        try:
            diff.exact_divide(weight.core().to_polynomial())
        except NotDivisible:
            violations.append(GkmViolation(I, J, weight, diff))
    return GkmCheckResult(not violations, tuple(violations))


@dataclass(frozen=True, eq=True)
class BasisExpansion:
    """Coefficients of a class in the Schubert basis, one per partition."""

    shape: GrassmannianShape
    coeffs: dict

    def reconstruct(self) -> EqClass:
        total = EqClass(self.shape, {})
        for lam, coeff in self.coeffs.items():
            total = total + schubert_class(lam, self.shape) * coeff
        return total

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(lam): str(c) for lam, c in self.coeffs.items()}}


def expand_in_basis(c: EqClass, *, _choose=None) -> BasisExpansion:
    """Triangular sweep through the support, reading one coefficient per step.

    At a support point with no nonzero point above it, only that point's own
    basis class can contribute, so the coefficient is the restriction divided
    by the diagonal normal-weight product; the scaled class is subtracted and
    the sweep repeats.  A failed division means the class is not an integral
    combination of Schubert classes.
    """
    shape = c.shape
    if _choose is None:
        _choose = lambda candidates: min(candidates, key=lambda s: s.elements)
    remaining = dict(c.items())
    coeffs: dict = {}
    rounds = 0
    bound = len(shape.subsets()) + 1
    while remaining:
        support = list(remaining)
        maximal = [
            I for I in support
            if not any(J != I and bruhat_leq(I, J) for J in support)
        ]
        I = _choose(maximal)
        lam = subset_to_partition(I, shape)
        try:
            q = remaining[I].exact_divide(euler_class(I, shape))
        except NotDivisible as err:
            raise NotInSpan(I, err.remainder) from err
        coeffs[lam] = q
        for J, v in schubert_class(lam, shape).items():
            nv = remaining.get(J, Polynomial.zero()) - q * v
            if nv:
                remaining[J] = nv
            else:
                remaining.pop(J, None)
        rounds += 1
        if rounds > bound:
            raise AssertionError("expansion failed to terminate")
    return BasisExpansion(shape, coeffs)


def structure_constants(lam, mu, shape: GrassmannianShape) -> BasisExpansion:
    """Expansion of the product of two Schubert classes in the basis."""
    product = schubert_class(lam, shape) * schubert_class(mu, shape)
    return expand_in_basis(product)


@dataclass(frozen=True)
class PositivityCertificate:
    """Outcome of rewriting a t-polynomial in consecutive differences.

    ``expansion`` is the image after the change of basis; on success it
    involves only y variables and has nonnegative coefficients.  On failure
    ``witness`` names the offending monomial, including any surviving t
    variable, which is reported rather than discarded.
    """

    ok: bool
    expansion: Polynomial
    witness: str | None

    def __bool__(self) -> bool:
        return self.ok


def positivity_certificate(p, n: int | None = None) -> PositivityCertificate:
    """Substitute t_i -> t_n - (y_i + ... + y_{n-1}) and inspect the result.

    Succeeds iff no t variable survives and every coefficient is
    nonnegative; y_i stands for t_{i+1} - t_i.
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
    if tvars:
        mapping = {}
        for i in range(1, n + 1):
            image = Polynomial.variable("t", n)
            for a in range(i, n):
                image = image - Polynomial.variable("y", a)
            mapping[("t", i)] = image
        expansion = poly.substitute(mapping)
    else:
        expansion = poly
    for mono, coeff in sorted(expansion.items(), key=lambda kv: kv[0]):
        if any(FAMILIES[rank] == "t" for (rank, _), _ in mono):
            witness = _term_text(mono, coeff)
            return PositivityCertificate(False, expansion, f"t variable survives: {witness}")
        if coeff < 0:
            witness = _term_text(mono, coeff)
            return PositivityCertificate(False, expansion, f"negative coefficient: {witness}")
    return PositivityCertificate(True, expansion, None)


def _term_text(mono, coeff) -> str:
    return str(Polynomial({mono: coeff}))


def integrate(c: EqClass) -> Polynomial:
    """Sum of restriction / tangent-weight-product over all fixed points.

    The result of the rational sum must clear its denominator; when it does
    not, the class was not in the image of the restriction map.
    """
    pieces = []
    for I in c.support():
        pieces.append(FactoredRational(c.restriction(I), tangent_weights(I, c.shape)))
    return ratf_to_polynomial(ratf_sum(pieces))


def projective_zeta(n: int) -> EqClass:
    """The hyperplane class of projective (n-1)-space as Gr(1, n): its value
    at the i-th coordinate point is -t_i."""
    if n < 2:
        raise ValueError("need n >= 2")
    shape = GrassmannianShape(n, 1)
    return EqClass(
        shape,
        {PivotSubset((i,)): -Polynomial.variable("t", i) for i in range(1, n + 1)},
    )


_BUNDLES = ("S", "S_dual", "Q")


def chern_class_taut(bundle: str, i: int, shape: GrassmannianShape) -> EqClass:
    """Equivariant Chern classes of the tautological bundles.

    At the fixed point of J the fiber weights are {t_j : j in J} for S,
    their negatives for S_dual, and {t_j : j not in J} for Q; the class
    value is the i-th elementary symmetric polynomial of those weights.
    """
    if bundle not in _BUNDLES:
        raise ValueError(f"bundle must be one of {_BUNDLES}")
    rank = shape.k if bundle in ("S", "S_dual") else shape.n - shape.k
    if i < 0 or i > rank:
        raise IndexOutOfRange(f"c_{i} of a rank {rank} bundle")
    restrictions = {}
    for J in shape.subsets():
        if bundle == "S":
            forms = [LinearForm({j: 1}) for j in J.elements]
        elif bundle == "S_dual":
            forms = [LinearForm({j: 1}, sign=-1) for j in J.elements]
        else:
            forms = [LinearForm({j: 1}) for j in J.missing(shape.n)]
        restrictions[J] = elementary_symmetric(i, forms)
    return EqClass(shape, restrictions)


def _series_mul(a: list[Polynomial], b: list[Polynomial], bound: int) -> list[Polynomial]:
    out = [Polynomial.zero() for _ in range(bound + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(bound + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _series_inverse(a: list[Polynomial], bound: int) -> list[Polynomial]:
    assert a[0] == 1, "series inversion needs constant term 1"
    out = [Polynomial.one()]
    for d in range(1, bound + 1):
        acc = Polynomial.zero()
        for j in range(1, d + 1):
            if j < len(a) and a[j]:
                acc = acc + a[j] * out[d - j]
        out.append(-acc)
    return out


def _chern_series(indices, bound: int) -> list[Polynomial]:
    forms = [LinearForm({j: 1}) for j in indices]
    return [
        elementary_symmetric(d, forms) if d <= len(forms) else Polynomial.zero()
        for d in range(bound + 1)
    ]


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    size = len(matrix)
    if size == 0:
        return Polynomial.one()
    total = Polynomial.zero()
    for perm in permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        prod = Polynomial.one()
        for row in range(size):
            prod = prod * matrix[row][perm[row]]
            if not prod:
                break
        total = total - prod if inversions % 2 else total + prod
    return total


def kempf_laksov_class(lam, shape: GrassmannianShape) -> EqClass:
    """Determinantal (degeneracy locus) construction of a Schubert class.

    At each fixed point the entry in row i, column j is the coefficient of
    degree lambda_i + j - i in the Chern series of Q minus the trivial
    bundle spanned by the first (n-k) - lambda_i + i coordinate lines; the
    class is the k x k determinant of those entries.  Series are truncated
    at degree lambda_1 + k - 1, the largest index the determinant reads.
    """
    lam = as_partition(lam)
    if not lam.fits(shape):
        raise DoesNotFitBox(f"{lam} does not fit in {shape.k} x {shape.box_width}")
    k = shape.k
    r = shape.n - shape.k
    padded = lam.padded(k)
    bound = padded[0] + k - 1
    inverses = {}
    for i in range(1, k + 1):
        m = r - padded[i - 1] + i
        if m not in inverses:
            inverses[m] = _series_inverse(_chern_series(range(1, m + 1), bound), bound)
    restrictions = {}
    for J in shape.subsets():
        q_series = _chern_series(J.missing(shape.n), bound)
        matrix = []
        for i in range(1, k + 1):
            m = r - padded[i - 1] + i
            ratio = _series_mul(q_series, inverses[m], bound)
            row = []
            for j in range(1, k + 1):
                p = padded[i - 1] + j - i
                row.append(ratio[p] if 0 <= p <= bound else Polynomial.zero())
            matrix.append(row)
        restrictions[J] = _det(matrix)
    return EqClass(shape, restrictions)
