import random

import pytest

from eqschub import gkmgrass, suites
from eqschub.dschur import (
    TooManyRows,
    _bialternant,
    _restricted_tables,
    double_schur,
    ordinary_schur,
    restrict_schur,
)
from eqschub.exactalg import MonomialOverflow, Polynomial, t, u, x
from eqschub.gkmgrass import opposite_schubert_class, schubert_class
from eqschub.ytcomb import DoesNotFitBox, GrassmannianShape, subset_to_partition

from oracles import (
    double_schur_by_products,
    ordinary_schur_by_products,
    poly_to_sympy,
    restrict_by_substitution,
    schubert_by_tableau_sum,
    schur_bialternant,
    value_at,
)

UP_TO_N7 = [GrassmannianShape(n, k) for n in range(2, 8) for k in range(1, n)]


def _eight_tableau_products() -> Polynomial:
    """The eight tableau products for shape (2,1), written out longhand."""
    terms = [
        (x(1) - u(1)) * (x(1) - u(2)) * (x(2) - u(1)),
        (x(1) - u(1)) * (x(1) - u(2)) * (x(3) - u(2)),
        (x(1) - u(1)) * (x(2) - u(3)) * (x(2) - u(1)),
        (x(1) - u(1)) * (x(2) - u(3)) * (x(3) - u(2)),
        (x(1) - u(1)) * (x(3) - u(4)) * (x(2) - u(1)),
        (x(1) - u(1)) * (x(3) - u(4)) * (x(3) - u(2)),
        (x(2) - u(2)) * (x(2) - u(3)) * (x(3) - u(2)),
        (x(2) - u(2)) * (x(3) - u(4)) * (x(3) - u(2)),
    ]
    total = Polynomial.zero()
    for term in terms:
        total = total + term
    return total


def test_double_schur_21_matches_tableau_sum():
    assert double_schur((2, 1), 3) == _eight_tableau_products()


def test_double_schur_tiny_shapes():
    assert double_schur((), 2) == 1
    assert double_schur((1,), 1) == x(1) - u(1)


def test_double_schur_contains_first_tableau_term():
    value = double_schur((2, 1), 3)
    rest = value - (x(1) - u(1)) * (x(1) - u(2)) * (x(2) - u(1))
    # removing one tableau product leaves the other seven
    assert rest == _eight_tableau_products() - (x(1) - u(1)) * (x(1) - u(2)) * (x(2) - u(1))


def test_too_many_rows():
    with pytest.raises(TooManyRows):
        double_schur((1, 1, 1), 2)
    with pytest.raises(TooManyRows):
        ordinary_schur((1, 1, 1), 2)


def test_index_above_limit_is_refused_up_front():
    # With k = 1 a row of 33 boxes has one tableau, the product of x1 - u_a
    # over a = 1..33, which holds 2^32 terms before its last factor reaches
    # u33; the row is refused before that product is begun.
    with pytest.raises(MonomialOverflow, match="u33"):
        double_schur((33,), 1)
    with pytest.raises(MonomialOverflow, match="u33"):
        double_schur((31, 31, 30), 4)  # 4 + 31 - 2
    with pytest.raises(MonomialOverflow, match="x33"):
        ordinary_schur((1,), 33)
    with pytest.raises(MonomialOverflow, match="u33"):
        double_schur((3,), 31)
    assert ("u", 32) in double_schur((2,), 31).variables()
    assert ordinary_schur((33,), 1) == x(1) ** 33
    assert double_schur((), 40) == 1


def test_row_past_the_exponent_bound_overflows_as_a_product_would():
    # One tableau of 70,000 boxes x1: the 65,536th box raises the text that
    # the generic product raised, and 65,535 boxes still fit.
    with pytest.raises(MonomialOverflow, match=r"^exponent 65536 of x1 exceeds 65535$"):
        ordinary_schur((70000,), 1)
    assert ordinary_schur((65535,), 1) == x(1) ** 65535


def test_tableau_sums_match_generic_product_oracle():
    # Every lam in the box of every Gr(k, n) with n <= 7: double_schur and
    # ordinary_schur in k variables, and restrict_schur at every point,
    # against the tableau sum with one generic Polynomial product per box in
    # tests/oracles.py.  The Schubert and opposite classes are checked
    # against the same oracle in test_gkmgrass.py.
    for shape in UP_TO_N7:
        for lam in shape.partitions():
            assert double_schur(lam, shape.k) == double_schur_by_products(lam, shape.k), (shape, lam)
            assert ordinary_schur(lam, shape.k) == ordinary_schur_by_products(lam, shape.k), (shape, lam)
            oracle = schubert_by_tableau_sum(lam, shape)
            for J in shape.subsets():
                mu = subset_to_partition(J, shape)
                assert restrict_schur(lam, mu, shape) == oracle.restriction(J), (shape, lam, mu)


def test_tableau_sums_build_no_polynomial_arithmetic(monkeypatch):
    # Each box's binomial multiplies the term's dict in place, and each
    # tableau's product adds into one dict: no Polynomial is multiplied,
    # added or subtracted on the way.
    shape = GrassmannianShape(6, 3)
    calls = (
        lambda: double_schur((2, 1), 3),
        lambda: ordinary_schur((2, 1), 3),
        lambda: restrict_schur((2, 1), (3, 2, 1), shape),
        lambda: restrict_schur((2, 1), (1,), shape),
        lambda: schubert_class((2, 1), shape),
        lambda: opposite_schubert_class((2, 1), shape),
    )
    monkeypatch.setattr(gkmgrass, "_SCHUBERT_CACHE", {})
    expected = [call() for call in calls]

    def refuse(*args):
        raise AssertionError("generic Polynomial arithmetic in a tableau sum")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    monkeypatch.setattr(gkmgrass, "_SCHUBERT_CACHE", {})
    assert [call() for call in calls] == expected


def test_symmetry_in_x_variables():
    shape_box = GrassmannianShape(5, 2)  # 2 x 3 box
    swap = {("x", 1): x(2), ("x", 2): x(1)}
    for lam in shape_box.partitions():
        value = double_schur(lam, 2)
        mapping = dict(swap)
        for fam, idx in value.variables():
            if fam == "u":
                mapping[("u", idx)] = u(idx)
        assert value.substitute(mapping) == value, lam


def test_symmetry_three_variables():
    value = double_schur((2, 1), 3)
    mapping = {("x", 1): x(1), ("x", 2): x(3), ("x", 3): x(2)}
    for fam, idx in value.variables():
        if fam == "u":
            mapping[("u", idx)] = u(idx)
    assert value.substitute(mapping) == value


def test_restrict_schur_examples():
    gr12 = GrassmannianShape(2, 1)
    assert restrict_schur((1,), (1,), gr12) == t(2) - t(1)
    assert restrict_schur((1,), (), gr12) == 0
    assert restrict_schur((), (1,), gr12) == 1
    assert restrict_schur((), (), gr12) == 1


def test_restrict_schur_box_checks():
    with pytest.raises(DoesNotFitBox):
        restrict_schur((2,), (1,), GrassmannianShape(2, 1))
    with pytest.raises(DoesNotFitBox):
        restrict_schur((1,), (2,), GrassmannianShape(2, 1))


def test_restrict_schur_matches_substitution_oracle():
    from eqschub.ytcomb import subset_to_partition

    pairs = 0
    for n in range(2, 7):
        for k in range(1, n):
            shape = GrassmannianShape(n, k)
            for lam in shape.partitions():
                expanded = double_schur(lam, k)
                for J in shape.subsets():
                    mu = subset_to_partition(J, shape)
                    oracle = restrict_by_substitution(expanded, J.elements, n)
                    assert restrict_schur(lam, mu, shape) == oracle, (n, k, lam, mu)
                    pairs += 1
    assert pairs == 1262


def test_restricted_tables_match_restrict_schur():
    """Each point's table against the tableau sum on every (lam, mu) with
    n <= 6, and on 150 seeded pairs of Gr(3,7); a partition a table leaves
    out must have the value 0, and the points come in the order of
    `subsets()`."""
    pairs = 0
    for n in range(2, 7):
        for k in range(1, n):
            shape = GrassmannianShape(n, k)
            points = list(_restricted_tables(shape))
            assert [pivots for pivots, _ in points] == [J.elements for J in shape.subsets()]
            for pivots, table in points:
                mu = subset_to_partition(pivots, shape)
                assert set(table) <= {lam.parts for lam in shape.partitions()}
                for lam in shape.partitions():
                    assert table.get(lam.parts, 0) == restrict_schur(lam, mu, shape), (n, k, lam, mu)
                    pairs += 1
    assert pairs == 1262
    shape = GrassmannianShape(7, 3)
    tables = dict(_restricted_tables(shape))
    rng = random.Random(2503)
    for _ in range(150):
        lam = rng.choice(shape.partitions())
        pivots = rng.choice(shape.subsets()).elements
        value = restrict_schur(lam, subset_to_partition(pivots, shape), shape)
        assert tables[pivots].get(lam.parts, 0) == value, (lam, pivots)


def test_interpolation_suite_reports_wrong_table_values(monkeypatch):
    """A wrong value at one point is reported with the text, and in the
    order, of the pair-by-pair sweep: shape by shape, partition by
    partition, the diagonal first, then the points in partition order."""
    # ((n, k), mu, lam): the amount added to the value of lam at mu
    wrong = {((2, 1), (), (1,)): t(1), ((4, 2), (2,), (2, 1)): t(1),
             ((4, 2), (1, 1), (2, 1)): t(2), ((4, 2), (2, 1), (2, 1)): Polynomial.one(),
             ((4, 2), (1,), (1,)): -t(4)}
    real = suites._restricted_tables

    def tables(shape):
        for pivots, table in real(shape):
            mu = subset_to_partition(pivots, shape).parts
            table = dict(table)
            for (nk, at, lam), delta in wrong.items():
                if nk == (shape.n, shape.k) and at == mu:
                    table[lam] = table.get(lam, Polynomial.zero()) + delta
            yield pivots, table

    monkeypatch.setattr(suites, "_restricted_tables", tables)
    report = suites.suite_interpolation()
    diagonal = "t2*t4^2 - t1*t4^2 - t2*t3*t4 + t1*t3*t4 - t1*t2*t4 + t1^2*t4 + t1*t2*t3 - t1^2*t3"
    assert report["cases"] == 114
    assert report["failures"] == [
        "Gr(1,2) lam=1 mu=0: expected 0, got t1",
        "Gr(2,4) lam=1: diagonal -t4 + t3 - t2 != t3 - t2",
        f"Gr(2,4) lam=2,1: diagonal {diagonal} + 1 != {diagonal}",
        "Gr(2,4) lam=2,1 mu=1,1: expected 0, got t2",
        "Gr(2,4) lam=2,1 mu=2: expected 0, got t1",
    ]


def test_restrict_schur_diagonal_small():
    # diagonal values are the products of normal weights
    from eqschub.ytcomb import normal_weights, partition_to_subset

    shape = GrassmannianShape(4, 2)
    assert restrict_schur((1,), (1,), shape) == t(3) - t(2)
    for lam in shape.partitions():
        product = Polynomial.one()
        for w in normal_weights(partition_to_subset(lam, shape), shape):
            product = product * w
        assert restrict_schur(lam, lam, shape) == product, lam


def test_ordinary_schur_examples():
    assert ordinary_schur((1,), 2) == x(1) + x(2)
    assert ordinary_schur((2, 2), 2) == x(1) ** 2 * x(2) ** 2
    at_ones = ordinary_schur((2, 1), 3).substitute(
        {("x", 1): 1, ("x", 2): 1, ("x", 3): 1}
    )
    assert at_ones == 8


def test_ordinary_schur_is_u_free():
    value = ordinary_schur((2, 1), 3)
    assert all(fam == "x" for fam, _ in value.variables())


def test_ordinary_schur_matches_bialternant():
    import sympy

    for k in (1, 2, 3):
        shapes = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (4,), (3,), (1, 1, 1), (2, 1, 1)]
        for lam in shapes:
            if len([p for p in lam if p]) > k or sum(lam) > 4:
                continue
            ours = poly_to_sympy(ordinary_schur(lam, k))
            oracle = schur_bialternant(lam, k)
            assert sympy.expand(ours - oracle) == 0, (lam, k)


def test_bialternant_matches_schubert_restrictions_at_points():
    """The bialternant value at a seeded random point with distinct
    coordinates, one point per fixed point, against the built Schubert
    restriction evaluated there: every (lam, J) of Gr(1,3), Gr(2,5), Gr(3,6)
    and Gr(4,8), so k from 1 to 4, and 20 pairs each of 6 seeded partitions
    of weight at most 6 on Gr(4,9) and Gr(5,10)."""
    rng = random.Random(2301)
    cases = []
    for n, k in ((3, 1), (5, 2), (6, 3), (8, 4)):
        shape = GrassmannianShape(n, k)
        cases += [(shape, lam, shape.subsets()) for lam in shape.partitions()]
    for n, k in ((9, 4), (10, 5)):
        shape = GrassmannianShape(n, k)
        small = [lam for lam in shape.partitions() if lam.weight <= 6]
        cases += [(shape, lam, rng.sample(shape.subsets(), 20)) for lam in rng.sample(small, 6)]
    points = {}
    for shape, lam, subsets in cases:
        cls = schubert_class(lam, shape)
        for J in subsets:
            point = points.setdefault((shape, J), rng.sample(range(-40, 41), shape.n))
            expected = value_at(cls.restriction(J), point)
            assert _bialternant(lam.parts, J.elements, point) == expected, (shape, lam, J)
