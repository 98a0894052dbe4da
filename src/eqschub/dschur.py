"""Double Schur polynomials and their specializations, as tableau sums, a
branching table and one bialternant.

Each of five values is a sum over semistandard tableaux, from the one
backtracking of `ytcomb`, of a product of one linear factor per box, a
variable or a difference of two.  `_tableau_sum` takes each factor as the
monomials of its variables and multiplies a term's dict by it directly,
adding through `exactalg`'s one accumulation loop, so no Polynomial is
built per box.  Over every tableau with entries <= k, the double Schur
polynomial takes x_s - u_a, the ordinary one x_s, and the restriction to
a fixed point of Gr(k, n) t_{n+1-a} - t_{i_s}, with no substitution;
`_restricted_tables` builds all of a point's restrictions at once by the
branching rule.  Over flagged tableaux (excited Young diagrams) the
Schubert and opposite restrictions of `gkmgrass` take a weight t_j - t_i
(i < j), so no terms cancel.  The third form, a Schubert restriction at an integer point, is a
k x k determinant over a Vandermonde product (`_bialternant`).
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .exactalg import (
    MAX_EXPONENT,
    EqschubError,
    Polynomial,
    t,
    _ONE,
    _check_product,
    _merge,
    _monomial,
)
from .ytcomb import (
    GrassmannianShape,
    Partition,
    _check_partition,
    _flagged_tableaux,
    partition_to_subset,
    ssyt_enumerate,
)


class TooManyRows(EqschubError):
    """The partition has more rows than there are x variables."""


def _tableau_sum(tableaux, factor) -> Polynomial:
    """Sum over the tableaux of prod factor(s, s + j - i).

    Each tableau is its tuple of rows.  Box coordinates (i, j) are 1-indexed
    matrix style and s is the entry of the box; column strictness keeps the
    second index s + j - i >= 1.  factor(s, a) gives the monomials (plus,
    minus) of the box's binomial plus - minus, or (plus, None) for the one
    variable plus.  The product by it sends each term (m, c) to m + plus with
    c and m + minus with -c in a fresh dict, so no Polynomial is built per
    box, and each tableau's product adds into one sum.  An exponent grows by
    at most 1 per box, so only a box past the MAX_EXPONENT-th is checked for
    overflow, as a product would be.
    """
    total: dict = {}
    for rows in tableaux:
        term, count = {_ONE: 1}, 0
        for i, row in enumerate(rows, start=1):
            for j, s in enumerate(row, start=1):
                plus, minus = factor(s, s + j - i)
                count += 1
                if count > MAX_EXPONENT and term and plus != minus:
                    _check_product(term, {plus: 1} if minus is None else {plus: 1, minus: -1})
                out = {m + plus: c for m, c in term.items()}
                if minus is not None:
                    _merge(out, term, minus, -1)
                term = out
        if total:
            _merge(total, term, _ONE, 1)
        else:
            total = term
    return Polynomial._make(total)


def _check_schur(lam: Partition, k: int, factor) -> None:
    """Refuse the tableau sum over entries <= k before any tableau is built."""
    if len(lam.parts) > k:
        raise TooManyRows(f"{lam} has more than {k} rows")
    # Entries reach k, and s + j - i reaches k + lam_1 - (the number of rows
    # of length lam_1): the factor there raises MonomialOverflow for an index
    # above MAX_INDEX.
    if lam.parts:
        factor(k, k + lam.parts[0] - lam.parts.count(lam.parts[0]))


def _schur_sum(lam: Partition, k: int, factor) -> Polynomial:
    """The tableau sum over every SSYT with entries <= k."""
    _check_schur(lam, k, factor)
    return _tableau_sum(ssyt_enumerate(lam, k), factor)


# The box factor of double_schur, and of ordinary_schur, by `ordinary`.
_SCHUR_FACTORS = {False: lambda s, a: (_monomial("x", s), _monomial("u", a)),
                  True: lambda s, a: (_monomial("x", s), None)}


def double_schur(lam, k: int) -> Polynomial:
    """Sum over semistandard tableaux of prod (x_{S(i,j)} - u_{S(i,j)+j-i}).

    The value is symmetric in x_1..x_k and is the ordinary Schur polynomial
    when every u variable is set to zero; the test suite checks both facts
    rather than assuming them here.
    """
    return _schur_sum(Partition.of(lam), k, _SCHUR_FACTORS[False])


def restrict_schur(lam, mu, shape: GrassmannianShape) -> Polynomial:
    """Value of the double Schur polynomial for lam at the fixed point of mu.

    The tableau sum with each box factor x_s - u_a evaluated at x_s = -t_{i_s}
    (i the pivot subset of mu) and u_a = -t_{n+1-a}, i.e. t_{n+1-a} - t_{i_s}.
    Nonzero only when mu contains lam; at other points the terms cancel in the sum.
    """
    lam = _check_partition(lam, shape)
    pivots = partition_to_subset(mu, shape).elements
    return _schur_sum(lam, shape.k,
                      lambda s, a: (_monomial("t", shape.n + 1 - a), _monomial("t", pivots[s - 1])))


def _restricted_tables(shape: GrassmannianShape):
    """Yield (pivots, table) for each fixed point, pivots in lexicographic
    order; table maps the parts of each partition lam in the box, leaving
    out zeros, to restrict_schur(lam, mu) at the point mu.

    The entries s of a tableau form a horizontal strip, so V_s(nu), the sum
    over tableaux of shape nu with entries <= s, is the sum over kappa with
    nu_{i+1} <= kappa_i <= nu_i, kappa_s = 0, of V_{s-1}(kappa) times
    t_{n+1-(s+j-i)} - t_{i_s} per box (i, j) of nu/kappa (Molev-Sagan 1999).
    V_s depends on i_1..i_s alone, so a depth-first walk over pivot
    prefixes builds each level once and holds one path."""
    n, k, width = shape.n, shape.k, shape.box_width

    def level(below: dict, s: int, pivot: int) -> dict:
        weights = [t(n + 1 - s - d) - t(pivot) for d in range(1 - s, width)]
        out = {}

        def grow(kappa, value, nu, factor):
            i = len(nu) + 1
            if i > s:
                parts = nu[:nu.index(0)] if 0 in nu else nu
                out[parts] = out.get(parts, Polynomial.zero()) + value * factor
                return
            for part in range(kappa[i - 1], (kappa[i - 2] if i > 1 else width) + 1):
                if part > kappa[i - 1]:
                    factor = factor * weights[part - i + s - 1]
                grow(kappa, value, nu + (part,), factor)

        for kappa, value in below.items():
            if value:
                grow(kappa + (0,) * (s - len(kappa)), value, (), Polynomial.one())
        return out

    def walk(below: dict, pivots: tuple):
        if len(pivots) == k:
            yield pivots, below
            return
        for pivot in range(pivots[-1] + 1 if pivots else 1, width + len(pivots) + 2):
            yield from walk(level(below, len(pivots) + 1, pivot), pivots + (pivot,))

    yield from walk({(): Polynomial.one()}, ())


def ordinary_schur(lam, k: int) -> Polynomial:
    """The double Schur polynomial at u = 0: the tableau sum of prod x_s."""
    return _schur_sum(Partition.of(lam), k, _SCHUR_FACTORS[True])


def _flagged_sum(lam: Partition, mu: Partition, rows, cols) -> Polynomial:
    """Sum over the excited Young diagrams of lam inside mu of the product of
    one weight t_{cols[c-1]} - t_{rows[r-1]} per box (r, c); zero unless mu
    contains lam.

    The diagrams are the semistandard tableaux of shape lam whose box (i, j),
    holding s, moves to the box (s, s + j - i) of mu (Morales-Pak-Panova,
    J. Combin. Theory A 154, 2018, section 3).  So box (i, j) holds at most
    the number of s with mu_s - s >= j - i, a top entry, since mu_s - s
    strictly falls as s grows.
    """
    if not mu.contains(lam):
        return Polynomial.zero()
    tops = [sum(m - s >= j - i for s, m in enumerate(mu.parts, start=1))
            for i, width in enumerate(lam.parts, start=1) for j in range(1, width + 1)]
    return _tableau_sum(_flagged_tableaux(lam.parts, tops),
                        lambda s, a: (_monomial("t", cols[a - 1]), _monomial("t", rows[s - 1])))


def _bialternant(parts: tuple[int, ...], pivots: tuple[int, ...], point) -> int:
    """The restriction of the Schubert class of the partition `parts` to the
    fixed point with pivot subset `pivots`, at t_i = point[i - 1]; the
    coordinates of point must be distinct.

    It is `restrict_schur`'s value, the factorial Schur function
    s_lam(x|a) at x_s = -t_{i_s} and a_m = -t_{n+1-m}, in its bialternant
    form det[(x_s|a)^(lam_c + k - c)] / prod_{s<r} (x_s - x_r), where
    (x|a)^e = (x - a_1)...(x - a_e) (Macdonald, "Schur functions: theme and
    variations", 1992, 6th variation).  Row s of the matrix reads the prefix
    products of t_{n+1-m} - t_{i_s} over m, and fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968) takes the k x k determinant in O(k^3)
    exact integer steps, each division exact.
    """
    k, n = len(pivots), len(point)
    exponents = [part + k - c for c, part in enumerate(parts + (0,) * (k - len(parts)), start=1)]
    matrix = []
    for i in pivots:
        here, power, powers = point[i - 1], 1, [1]
        for m in range(n, n - exponents[0], -1):
            power *= point[m - 1] - here
            powers.append(power)
        matrix.append([powers[e] for e in exponents])
    sign, previous = 1, 1
    for c in range(k - 1):
        if not matrix[c][c]:
            swap = next((r for r in range(c + 1, k) if matrix[r][c]), None)
            if swap is None:
                return 0
            matrix[c], matrix[swap] = matrix[swap], matrix[c]
            sign = -sign
        pivot, row = matrix[c][c], matrix[c]
        for other in matrix[c + 1:]:
            lead = other[c]
            for e in range(c + 1, k):
                other[e] = (other[e] * pivot - lead * row[e]) // previous
        previous = pivot
    vandermonde = prod(point[r - 1] - point[s - 1] for s, r in combinations(pivots, 2))
    value, rest = divmod(sign * matrix[-1][-1], vandermonde)
    if rest:
        raise AssertionError(f"bialternant not divisible by its Vandermonde: {rest} left")
    return value
