"""The eight value types: constructor, repr, equality, hash, immutability,
pickling and match arguments, each pinned to literal values."""

import copy
import pickle

import pytest

from eqschub.exactalg import t
from eqschub.gkmgrass import (
    BasisExpansion,
    GKMGraph,
    GkmCheckResult,
    GkmViolation,
    PositivityCertificate,
    expand_in_basis,
    gkm_graph,
    positivity_certificate,
    schubert_class,
)
from eqschub.ytcomb import GrassmannianShape, Partition, PivotSubset

VIOLATION = GkmViolation(PivotSubset((1, 2)), PivotSubset((2, 3)), t(3) - t(1), t(1))
VIOLATION_REPR = ("GkmViolation(start=PivotSubset(elements=(1, 2)), end=PivotSubset(elements=(2, 3)), "
                  "weight=Polynomial('t3 - t1'), difference=Polynomial('t1'))")

# (type, value, field names, repr); the values come from constructors and
# from the functions that build them, with lists where tuples are stored.
CASES = [
    (GrassmannianShape, GrassmannianShape(4, 2), ("n", "k"), "GrassmannianShape(n=4, k=2)"),
    (PivotSubset, PivotSubset([1, 3]), ("elements",), "PivotSubset(elements=(1, 3))"),
    (Partition, Partition([2, 1]), ("parts",), "Partition(parts=(2, 1))"),
    (GKMGraph, gkm_graph(GrassmannianShape(2, 1)), ("shape", "vertices", "edges"),
     "GKMGraph(shape=GrassmannianShape(n=2, k=1), vertices=(PivotSubset(elements=(1,)), "
     "PivotSubset(elements=(2,))), edges=((PivotSubset(elements=(1,)), "
     "PivotSubset(elements=(2,)), Polynomial('t2 - t1')),))"),
    (GkmViolation, VIOLATION, ("start", "end", "weight", "difference"), VIOLATION_REPR),
    (GkmCheckResult, GkmCheckResult(False, (VIOLATION,)), ("ok", "violations"),
     f"GkmCheckResult(ok=False, violations=({VIOLATION_REPR},))"),
    (BasisExpansion, expand_in_basis(schubert_class((1,), GrassmannianShape(4, 2))),
     ("shape", "coeffs"),
     "BasisExpansion(shape=GrassmannianShape(n=4, k=2), coeffs={Partition(parts=(1,)): Polynomial('1')})"),
    (PositivityCertificate, positivity_certificate(t(1) - t(2)), ("ok", "expansion", "witness"),
     "PositivityCertificate(ok=False, expansion=Polynomial('-y1'), "
     "witness='negative coefficient: -y1')"),
]
IDS = [case[0].__name__ for case in CASES]


def fields(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("cls, value, names, text", CASES, ids=IDS)
def test_repr_and_construction(cls, value, names, text):
    assert type(value) is cls
    assert repr(value) == text
    assert cls.__match_args__ == names
    values = fields(value, names)
    assert repr(cls(*values)) == text
    assert repr(cls(**dict(zip(names, values)))) == text
    assert cls(*values) == value
    assert cls(**dict(zip(names, values))) == value


@pytest.mark.parametrize("cls, value, names, text", CASES, ids=IDS)
def test_equality_within_one_class_only(cls, value, names, text):
    values = fields(value, names)
    assert value != values
    assert value.__eq__(values) is NotImplemented
    others = [other for _, other, _, _ in CASES if type(other) is not cls]
    assert all(value != other for other in others)


def test_pivot_subset_is_not_a_partition():
    assert PivotSubset((1,)) != Partition((1,))
    assert Partition((1,)) != PivotSubset((1,))
    assert len({PivotSubset((1,)), Partition((1,))}) == 2


HASHABLE = [case for case in CASES if case[0] is not BasisExpansion]


@pytest.mark.parametrize("cls, value, names, text", HASHABLE, ids=[c[0].__name__ for c in HASHABLE])
def test_hash_is_that_of_the_field_tuple(cls, value, names, text):
    # This hash fixes the iteration order of sets of these values.
    assert hash(value) == hash(fields(value, names))
    assert hash(cls(*fields(value, names))) == hash(value)


def test_basis_expansion_is_unhashable():
    expansion = expand_in_basis(schubert_class((1,), GrassmannianShape(4, 2)))
    assert BasisExpansion.__hash__ is None
    with pytest.raises(TypeError, match="^unhashable type: 'BasisExpansion'$"):
        hash(expansion)


@pytest.mark.parametrize("cls, value, names, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, value, names, text):
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("cls, value, names, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, value, names, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and repr(back) == text
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is cls and back == value and repr(back) == text


@pytest.mark.parametrize("make, message", [
    (lambda: GrassmannianShape(3, 3), "need 1 <= k <= n-1, got k=3, n=3"),
    (lambda: GrassmannianShape(n=3, k=0), "need 1 <= k <= n-1, got k=0, n=3"),
    (lambda: PivotSubset((0, 2)), "pivot entries must be positive integers: (0, 2)"),
    (lambda: PivotSubset(elements=[1, "2"]), "pivot entries must be positive integers: (1, '2')"),
    (lambda: PivotSubset([2, 2]), "pivot entries must strictly increase: (2, 2)"),
    (lambda: Partition((1, 0)), "parts must be positive integers: (1, 0)"),
    (lambda: Partition(parts=[1, 2]), "parts must weakly decrease: (1, 2)"),
])
def test_bad_input_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_match_by_position_and_keyword():
    match PivotSubset((1, 3)), GrassmannianShape(5, 2):
        case PivotSubset((first, *_)), GrassmannianShape(n, k=k):
            assert (first, n, k) == (1, 5, 2)
        case _:
            pytest.fail("no case matched")

