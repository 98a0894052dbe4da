from itertools import product

import pytest

from eqschub.exactalg import t
from eqschub.ytcomb import (
    DoesNotFitBox,
    GrassmannianShape,
    Partition,
    PivotSubset,
    bruhat_leq,
    cell_weights,
    normal_weights,
    partition_to_subset,
    ssyt_enumerate,
    subset_to_partition,
    tangent_weights,
    _ssyt_count,
)


def test_shape_validation():
    GrassmannianShape(4, 2)
    with pytest.raises(ValueError):
        GrassmannianShape(3, 3)
    with pytest.raises(ValueError):
        GrassmannianShape(3, 0)


def test_pivot_subset_validation():
    with pytest.raises(ValueError):
        PivotSubset((2, 2))
    with pytest.raises(ValueError):
        PivotSubset((3, 1))
    assert PivotSubset.of([3, 1]).elements == (1, 3)
    assert str(PivotSubset((2, 4, 5))) == "{2,4,5}"


def test_partition_validation_and_render():
    with pytest.raises(ValueError):
        Partition((1, 2))
    assert Partition.of([3, 2, 2, 0, 0]).parts == (3, 2, 2)
    assert str(Partition.of([3, 2, 2])) == "3,2,2"
    assert str(Partition.of([])) == "0"
    assert Partition.of([2, 1]).weight == 3


def test_subset_to_partition_worked_example():
    shape = GrassmannianShape(7, 3)
    assert subset_to_partition((2, 4, 5), shape) == Partition((3, 2, 2))


def test_subset_partition_extremes():
    shape = GrassmannianShape(6, 2)
    assert subset_to_partition((5, 6), shape) == Partition(())
    assert subset_to_partition((1, 2), shape) == Partition((4, 4))
    assert partition_to_subset((), shape) == PivotSubset((5, 6))
    assert partition_to_subset((4, 4), shape) == PivotSubset((1, 2))


def test_partition_to_subset_examples():
    assert partition_to_subset((3, 2, 2), GrassmannianShape(7, 3)) == PivotSubset((2, 4, 5))
    assert partition_to_subset((1,), GrassmannianShape(2, 1)) == PivotSubset((1,))
    with pytest.raises(DoesNotFitBox):
        partition_to_subset((5,), GrassmannianShape(6, 2))
    with pytest.raises(DoesNotFitBox):
        partition_to_subset((1, 1, 1), GrassmannianShape(6, 2))


def test_bijection_round_trip_exhaustive():
    for n in range(2, 9):
        for k in range(1, n):
            shape = GrassmannianShape(n, k)
            for I in shape.subsets():
                assert partition_to_subset(subset_to_partition(I, shape), shape) == I


def test_bruhat_examples():
    assert bruhat_leq((1,), (2,))
    assert not bruhat_leq((2,), (1,))
    assert bruhat_leq((1, 3), (2, 4))
    assert not bruhat_leq((1, 4), (2, 3))
    with pytest.raises(ValueError):
        bruhat_leq((1,), (1, 2))


def test_bruhat_matches_reverse_containment():
    for n in range(2, 8):
        for k in range(1, n):
            shape = GrassmannianShape(n, k)
            subsets = shape.subsets()
            for J in subsets:
                for I in subsets:
                    lhs = bruhat_leq(J, I)
                    rhs = subset_to_partition(J, shape).contains(subset_to_partition(I, shape))
                    assert lhs == rhs, (J, I)


def test_ssyt_enumeration_21():
    tabs = ssyt_enumerate((2, 1), 3)
    assert len(tabs) == 8
    words = [sum(tab, ()) for tab in tabs]
    assert words == [
        (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
        (1, 3, 2), (1, 3, 3), (2, 2, 3), (2, 3, 3),
    ]
    assert words == sorted(words)


def test_ssyt_edge_cases():
    assert len(ssyt_enumerate((), 5)) == 1
    assert ssyt_enumerate((), 5)[0] == ()
    only = ssyt_enumerate((2, 2), 2)
    assert len(only) == 1
    assert only[0] == ((1, 1), (2, 2))
    assert len(ssyt_enumerate((1,), 7)) == 7
    assert ssyt_enumerate((1, 1, 1), 2) == []


def test_ssyt_order_matches_brute_force():
    # product() runs through all fillings in lexicographic order of the
    # row-reading word; keeping the semistandard ones must give the list.
    for lam in [(1,), (3,), (2, 1), (2, 2), (3, 1, 1), (2, 2, 1), (3, 2, 1)]:
        cuts = [sum(lam[:i]) for i in range(len(lam) + 1)]
        for k in range(5):
            expected = []
            for word in product(range(1, k + 1), repeat=cuts[-1]):
                rows = tuple(word[a:b] for a, b in zip(cuts, cuts[1:]))
                if all(r[j] <= r[j + 1] for r in rows for j in range(len(r) - 1)) and all(
                        upper[j] < lower[j] for upper, lower in zip(rows, rows[1:])
                        for j in range(len(lower))):
                    expected.append(rows)
            assert ssyt_enumerate(lam, k) == expected, (lam, k)


def test_ssyt_of_more_boxes_than_the_recursion_limit():
    assert ssyt_enumerate((1000,), 1) == [((1,) * 1000,)]


def test_ssyt_count_matches_enumeration():
    # Weyl's dimension formula against the tableaux themselves, zero counts
    # (more rows than entries) included.
    def partitions(n, largest):
        if not n:
            yield ()
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part,) + rest

    for n in range(9):
        for lam in partitions(n, n):
            for k in range(6):
                assert _ssyt_count(Partition(lam), k) == len(ssyt_enumerate(lam, k)), (lam, k)
    assert _ssyt_count(Partition((5, 5, 5)), 6) == 14112
    assert _ssyt_count(Partition((10 ** 6,)), 2) == 10 ** 6 + 1  # for any size
    assert _ssyt_count(Partition(()), 10 ** 9) == 1  # pairs of zero rows are not formed



def test_weights_projective_line():
    shape = GrassmannianShape(2, 1)
    I = PivotSubset((1,))
    assert tangent_weights(I, shape) == [t(2) - t(1)]
    assert normal_weights(I, shape) == tangent_weights(I, shape)
    assert cell_weights(I, shape) == []


def test_cell_weight_worked_example():
    # the weight joining rows 3 and 4 shows up along the cell of {2,4,5}
    shape = GrassmannianShape(7, 3)
    cells = cell_weights((2, 4, 5), shape)
    # along the cell it is t3 - t4, the negative of the positive weight t4 - t3
    assert t(3) - t(4) in cells
    assert t(4) - t(3) not in cells


def test_weight_counts():
    for n in range(2, 9):
        for k in range(1, n):
            shape = GrassmannianShape(n, k)
            for I in shape.subsets():
                tangent = tangent_weights(I, shape)
                cell = cell_weights(I, shape)
                normal = normal_weights(I, shape)
                assert len(tangent) == shape.dimension
                assert len(cell) + len(normal) == shape.dimension
                assert len(normal) == subset_to_partition(I, shape).weight
                assert set(cell) | set(normal) == set(tangent)


def test_partitions_listing():
    shape = GrassmannianShape(4, 2)
    lams = shape.partitions()
    assert len(lams) == 6
    assert lams[0] == Partition(())
    assert lams[-1] == Partition((2, 2))
    weights = [p.weight for p in lams]
    assert weights == sorted(weights)


def test_box_complement():
    shape = GrassmannianShape(7, 3)
    assert Partition((3, 2, 2)).box_complement(shape) == Partition((2, 2, 1))
    assert Partition(()).box_complement(shape) == Partition((4, 4, 4))
    shape12 = GrassmannianShape(2, 1)
    assert Partition((1,)).box_complement(shape12) == Partition(())


def test_reflected():
    assert PivotSubset((2, 4, 5)).reflected(7) == PivotSubset((3, 4, 6))
    assert partition_to_subset(Partition((3, 2, 2)).box_complement(GrassmannianShape(7, 3)),
                               GrassmannianShape(7, 3)) == PivotSubset((2, 4, 5)).reflected(7)
