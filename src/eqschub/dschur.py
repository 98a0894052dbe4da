"""Double Schur polynomials via tableau sums, and their specializations."""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import EqschubError, Polynomial
from .ytcomb import (
    DoesNotFitBox,
    GrassmannianShape,
    Partition,
    as_partition,
    partition_to_subset,
    ssyt_enumerate,
)


class TooManyRows(EqschubError):
    """The partition has more rows than there are x variables."""


@dataclass(frozen=True)
class DoubleSchur:
    """The tableau-sum polynomial for a shape, in x_1..x_k and u variables.

    The value is symmetric in the x variables and degenerates to the
    ordinary Schur polynomial when every u variable is set to zero; both
    facts are exercised by the test suite rather than assumed here.
    """

    shape: Partition
    k: int
    value: Polynomial


_CACHE: dict = {}


def double_schur(lam, k: int) -> DoubleSchur:
    """Sum over semistandard tableaux of prod (x_{S(i,j)} - u_{S(i,j)+j-i}).

    Box coordinates are 1-indexed matrix style, so the u index of box (i, j)
    filled with s is s + j - i; column strictness keeps every index >= 1.
    """
    lam = as_partition(lam)
    if len(lam.parts) > k:
        raise TooManyRows(f"{lam} has more than {k} rows")
    key = (lam.parts, k)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    total = Polynomial.zero()
    for tab in ssyt_enumerate(lam, k):
        term = Polynomial.one()
        for i, row in enumerate(tab.rows, start=1):
            for j, s in enumerate(row, start=1):
                idx = s + j - i
                assert idx >= 1, "column strictness bounds the u index below"
                term = term * (Polynomial.variable("x", s) - Polynomial.variable("u", idx))
        total = total + term
    result = DoubleSchur(lam, k, total)
    _CACHE[key] = result
    return result


def restrict_schur(lam, mu, shape: GrassmannianShape) -> Polynomial:
    """Value of the double Schur polynomial for lam at the fixed point of mu.

    Substitutes x_j -> -t_{i_j} for the pivot subset of mu and
    u_i -> -t_{n+1-i}.  Nonzero only when mu contains lam.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if not lam.fits(shape):
        raise DoesNotFitBox(f"{lam} does not fit in {shape.k} x {shape.box_width}")
    if not mu.fits(shape):
        raise DoesNotFitBox(f"{mu} does not fit in {shape.k} x {shape.box_width}")
    ds = double_schur(lam, shape.k)
    pivots = partition_to_subset(mu, shape).elements
    mapping = {}
    for family, idx in ds.value.variables():
        if family == "x":
            mapping[(family, idx)] = -Polynomial.variable("t", pivots[idx - 1])
        elif family == "u":
            assert idx <= shape.n - 1, "u indices stay below n inside the box"
            mapping[(family, idx)] = -Polynomial.variable("t", shape.n + 1 - idx)
    return ds.value.substitute(mapping)


def ordinary_schur(lam, k: int) -> Polynomial:
    """The double Schur polynomial with every u variable set to zero."""
    ds = double_schur(lam, k)
    mapping = {}
    for family, idx in ds.value.variables():
        if family == "u":
            mapping[(family, idx)] = 0
        else:
            mapping[(family, idx)] = Polynomial.variable(family, idx)
    return ds.value.substitute(mapping)
