"""Double Schur polynomials and their specializations, all as one tableau sum.

Each value is a sum over semistandard tableaux of a product of one linear
factor per box.  The double Schur polynomial takes x_s - u_a, the ordinary
one x_s, and the restriction to a fixed point of Gr(k, n) the weight
t_{n+1-a} - t_{i_s} directly, so no polynomial is substituted into.
"""

from __future__ import annotations

from .exactalg import EqschubError, Polynomial, t, u, x
from .ytcomb import (
    GrassmannianShape,
    Partition,
    _check_partition,
    partition_to_subset,
    ssyt_enumerate,
)


class TooManyRows(EqschubError):
    """The partition has more rows than there are x variables."""


def _tableau_sum(lam: Partition, k: int, factor) -> Polynomial:
    """Sum over SSYT with entries <= k of prod factor(s, s + j - i).

    Each tableau comes from `ssyt_enumerate` as its tuple of rows.  Box
    coordinates (i, j) are 1-indexed matrix style and s is the entry of the
    box; column strictness keeps the second index s + j - i >= 1.
    """
    if len(lam.parts) > k:
        raise TooManyRows(f"{lam} has more than {k} rows")
    # Entries reach k, and s + j - i reaches k + lam_1 - (the number of rows
    # of length lam_1): the factor there raises MonomialOverflow for an index
    # above MAX_INDEX before any tableau is enumerated.
    if lam.parts:
        factor(k, k + lam.parts[0] - lam.parts.count(lam.parts[0]))
    total = Polynomial.zero()
    for rows in ssyt_enumerate(lam, k):
        term = Polynomial.one()
        for i, row in enumerate(rows, start=1):
            for j, s in enumerate(row, start=1):
                term = term * factor(s, s + j - i)
        total = total + term
    return total


def double_schur(lam, k: int) -> Polynomial:
    """Sum over semistandard tableaux of prod (x_{S(i,j)} - u_{S(i,j)+j-i}).

    The value is symmetric in x_1..x_k and is the ordinary Schur polynomial
    when every u variable is set to zero; the test suite checks both facts
    rather than assuming them here.
    """
    return _tableau_sum(Partition.of(lam), k, lambda s, a: x(s) - u(a))


def restrict_schur(lam, mu, shape: GrassmannianShape) -> Polynomial:
    """Value of the double Schur polynomial for lam at the fixed point of mu.

    The tableau sum with each box factor x_s - u_a evaluated at x_s = -t_{i_s}
    (i the pivot subset of mu) and u_a = -t_{n+1-a}, i.e. t_{n+1-a} - t_{i_s}.
    Nonzero only when mu contains lam; at other points the terms cancel in the sum.
    """
    lam = _check_partition(lam, shape)
    pivots = partition_to_subset(mu, shape).elements
    return _tableau_sum(lam, shape.k, lambda s, a: t(shape.n + 1 - a) - t(pivots[s - 1]))


def ordinary_schur(lam, k: int) -> Polynomial:
    """The double Schur polynomial at u = 0: the tableau sum of prod x_s."""
    return _tableau_sum(Partition.of(lam), k, lambda s, a: x(s))
