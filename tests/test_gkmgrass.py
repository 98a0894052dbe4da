import random
import time
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, seed, settings, strategies as st

from eqschub import dschur, gkmgrass
from eqschub.exactalg import (
    MonomialOverflow,
    ParseError,
    Polynomial,
    _chern_series,
    _divide_series,
    _weight_indices,
    elementary_symmetric,
    t,
    y,
)
from eqschub.gkmgrass import (
    EqClass,
    NotEquivariantClass,
    NotInSpan,
    ShapeMismatch,
    _minors,
    _pivot_sum,
    _schubert_restriction,
    chern_class_taut,
    constant_class,
    euler_class,
    expand_in_basis,
    gkm_check,
    gkm_graph,
    integrate,
    kempf_laksov_class,
    kl_mismatches,
    opposite_schubert_class,
    parse_class_expr,
    positivity_certificate,
    projective_zeta,
    schubert_class,
    structure_constants,
    tangent_euler,
)
from eqschub.ytcomb import (
    DoesNotFitBox,
    GrassmannianShape,
    Partition,
    PivotSubset,
    bruhat_leq,
    cell_weights,
    partition_to_subset,
    subset_to_partition,
)

from oracles import (
    certificate_by_substitution,
    chern_ratio,
    det_by_permutations,
    excited_diagrams,
    gkm_check_by_division,
    integral_at_point,
    lr_coefficient,
    opposite_by_substitution,
    schubert_by_tableau_sum,
    structure_constants_by_expansion,
    value_at,
)

GR12 = GrassmannianShape(2, 1)
GR24 = GrassmannianShape(4, 2)
GR25 = GrassmannianShape(5, 2)
GR36 = GrassmannianShape(6, 3)
UP_TO_N6 = [GrassmannianShape(n, k) for n in range(2, 7) for k in range(1, n)]
UP_TO_N7 = [GrassmannianShape(n, k) for n in range(2, 8) for k in range(1, n)]
UP_TO_N9 = [GrassmannianShape(n, k) for n in range(2, 10) for k in range(1, n)]


# ------------------------------------------------------------------ EqClass

def test_eqclass_drops_zero_values():
    c = EqClass(GR12, {(1,): t(1) - t(1), (2,): 1})
    assert c.support() == [PivotSubset((2,))]
    assert c.restriction((1,)) == 0


def test_eqclass_validates_keys():
    with pytest.raises(ValueError):
        EqClass(GR12, {(1, 2): 1})
    with pytest.raises(ValueError):
        EqClass(GR12, {(3,): 1})


def test_eqclass_refuses_a_subset_named_twice():
    # (1,2) and (2,1) name one subset; no value may win by key order or by
    # being nonzero.
    for restrictions in ({(1, 2): t(1), (2, 1): t(2)}, {(1, 2): t(1), (2, 1): 0},
                         {(2, 1): 0, (1, 2): t(1)}, {PivotSubset((1, 2)): 1, (1, 2): 1}):
        with pytest.raises(ValueError, match=r"restrictions name the subset \{1,2\} twice"):
            EqClass(GR24, restrictions)


def test_restrictions_round_trip_through_text():
    for shape in UP_TO_N7:
        for lam in shape.partitions():
            for I, value in schubert_class(lam, shape).items():
                assert Polynomial.parse(str(value)) == value, (shape, lam, I)


def test_class_text_is_each_restriction_rendered_alone():
    # A class renders its restrictions with one shared dict of factor texts;
    # its JSON and its text must read as if each restriction were rendered
    # by str on its own.  Every Schubert and opposite class, and the
    # products sigma_lam * sigma_1, of every Gr(k, n) with n <= 6.
    for shape in (shape for shape in UP_TO_N7 if shape.n <= 6):
        sigma1 = schubert_class((1,), shape)
        for lam in shape.partitions():
            schubert = schubert_class(lam, shape)
            for cls in (schubert, opposite_schubert_class(lam, shape), schubert * sigma1):
                alone = [(str(I), str(cls.restriction(I))) for I in shape.subsets()]
                data = cls.to_json_dict()
                assert list(data["restrictions"].items()) == alone, (shape, lam)
                assert data["n"] == shape.n and data["k"] == shape.k
                assert str(cls) == "\n".join(f"{I}: {text}" for I, text in alone), (shape, lam)


def test_eqclass_shape_mismatch():
    a = constant_class(GR12, 1)
    b = constant_class(GrassmannianShape(3, 1), 1)
    with pytest.raises(ShapeMismatch):
        a * b
    with pytest.raises(ShapeMismatch):
        a + b


def test_eqclass_json_round_trip():
    cls = schubert_class((2, 1), GR24)
    data = cls.to_json_dict()
    assert data["n"] == 4 and data["k"] == 2
    assert len(data["restrictions"]) == 6  # all entries materialized
    assert EqClass.from_json_dict(data) == cls


def test_class_json_keys_accept_loose_subset_text():
    # int() reads each comma-separated piece, so spaces, a missing brace and
    # a doubled comma stay accepted; a key that names no subset is refused.
    cls = schubert_class((1,), GR24)
    texts = [str(cls.restriction(I)) for I in GR24.subsets()]
    keys = ["{1, 2}", "1,3", "{1,4}", "{2,,3}", "{ 2 ,4 }", "{3,4}"]
    data = {"n": 4, "k": 2, "restrictions": dict(zip(keys, texts))}
    assert EqClass.from_json_dict(data) == cls
    for key in ("{a,b}", "{2,1}", "{1}", "{1,5}", "{1,2,3}"):
        with pytest.raises(ParseError, match="class JSON key"):
            EqClass.from_json_dict({"n": 4, "k": 2, "restrictions": {key: "1"}})


# -------------------------------------------------------------- euler class

def test_euler_class_examples():
    assert euler_class((1,), GR12) == t(2) - t(1)
    assert euler_class((3, 4), GR24) == 1
    assert euler_class((1, 2), GR24) == (t(3) - t(1)) * (t(4) - t(1)) * (t(3) - t(2)) * (t(4) - t(2))


# ---------------------------------------------------------- Schubert classes

def test_schubert_fundamental_class():
    cls = schubert_class((), GR24)
    assert all(cls.restriction(I) == 1 for I in GR24.subsets())


def test_schubert_class_projective_line():
    cls = schubert_class((1,), GR12)
    assert cls.restriction((1,)) == t(2) - t(1)
    assert cls.restriction((2,)) == 0


def test_schubert_point_class():
    lam = Partition((2, 2))  # full box on Gr(2,4)
    cls = schubert_class(lam, GR24)
    top = PivotSubset((1, 2))
    assert cls.support() == [top]
    assert cls.restriction(top) == euler_class(top, GR24)


def test_schubert_vanishing_pattern():
    for lam in GR24.partitions():
        cls = schubert_class(lam, GR24)
        I = partition_to_subset(lam, GR24)
        for J in GR24.subsets():
            value = cls.restriction(J)
            if bruhat_leq(J, I):
                assert value, (lam, J)
                assert value.is_homogeneous() and value.degree() == lam.weight
            else:
                assert not value, (lam, J)


def test_schubert_box_check():
    with pytest.raises(DoesNotFitBox):
        schubert_class((3,), GR24)


def test_schubert_class_matches_tableau_sum_oracle():
    # Every (lam, mu) on every Gr(k, n) with n <= 7, 4,692 pairs: the excited
    # Young diagram sum against the semistandard tableau sum, about 6 s.
    for shape in UP_TO_N7:
        for lam in shape.partitions():
            cls = schubert_class(lam, shape)
            oracle = schubert_by_tableau_sum(lam, shape)
            for J in shape.subsets():
                assert cls.restriction(J) == oracle.restriction(J), (shape, lam, J)


def test_flagged_tableaux_are_the_excited_diagrams(monkeypatch):
    # Every (lam, mu) with mu containing lam on every Gr(k, n) with n <= 9,
    # 23,694 pairs and 56,698 diagrams: each flagged tableau moves its box
    # (i, j), holding s, to (s, s + j - i), and those box sets are the
    # excited-move search's diagrams, none twice; about 1.2 s.  The recording
    # stand-in for _tableau_sum leaves the products out.
    found = []
    monkeypatch.setattr(dschur, "_tableau_sum", lambda tableaux, factor: found.append(tableaux))
    for shape in UP_TO_N9:
        partitions = shape.partitions()
        for mu in partitions:
            for lam in partitions:
                if mu.contains(lam):
                    found.clear()
                    dschur._flagged_sum(lam, mu, (), ())
                    (tableaux,) = found
                    moved = [frozenset((s, s + j - i) for i, row in enumerate(rows, start=1)
                                       for j, s in enumerate(row, start=1)) for rows in tableaux]
                    assert len(set(moved)) == len(moved), (shape, lam, mu)
                    assert set(moved) == excited_diagrams(lam, mu), (shape, lam, mu)


def test_schubert_and_opposite_restrictions_match_excited_diagram_oracle():
    # 40 seeded pairs (lam, J) with |lam| <= 8 and mu(J) containing lam, 20
    # each on Gr(4,9) and Gr(5,10), four lam per shape.  schubert_class(lam)
    # at J is the sum over the excited diagrams of lam inside mu(J) of the
    # weights t_{J'_c} - t_{J_r} (J_r the r-th pivot ascending, J'_c the c-th
    # non-pivot descending); the opposite class of lam's box complement at
    # J's reflection is the same sum with pivots descending and non-pivots
    # ascending.  About 1 s.
    rng = random.Random(22)
    for shape in (GrassmannianShape(9, 4), GrassmannianShape(10, 5)):
        small = [lam for lam in shape.partitions() if lam.weight <= 8]
        for lam in rng.sample(small, 4):
            schubert = schubert_class(lam, shape)
            opposite = opposite_schubert_class(lam.box_complement(shape), shape)
            points = [J for J in shape.subsets() if subset_to_partition(J, shape).contains(lam)]
            for J in rng.sample(points, 5):
                diagrams = excited_diagrams(lam, subset_to_partition(J, shape))
                flip = J.reflected(shape.n)
                for cls, point, rows, cols in (
                    (schubert, J, J.elements, J.missing(shape.n)[::-1]),
                    (opposite, flip, flip.elements[::-1], flip.missing(shape.n)),
                ):
                    expected = sum((prod((t(cols[c - 1]) - t(rows[r - 1]) for r, c in diagram),
                                         start=Polynomial.one()) for diagram in diagrams),
                                   Polynomial.zero())
                    assert cls.restriction(point) == expected, (shape, lam, J, cls is opposite)


def test_schubert_restrictions_are_graham_positive():
    # Every restriction on every Gr(k, n) with n <= 5, and on Gr(2,6), Gr(3,6)
    # and Gr(2,7), is a nonzero polynomial with nonnegative coefficients in
    # the y_i where mu contains lam, and zero elsewhere; about 0.4 s.
    # Gr(3,7) is left out: its 490 certificates alone take about 1 s.
    extra = [GrassmannianShape(6, 2), GR36, GrassmannianShape(7, 2)]
    for shape in [s for s in UP_TO_N7 if s.n <= 5] + extra:
        for lam in shape.partitions():
            cls = schubert_class(lam, shape)
            for J in shape.subsets():
                value = cls.restriction(J)
                if subset_to_partition(J, shape).contains(lam):
                    assert value and positivity_certificate(value, shape.n).ok, (shape, lam, J)
                else:
                    assert not value, (shape, lam, J)


# --------------------------------------------------------- opposite classes

def test_opposite_full_box_is_fundamental():
    cls = opposite_schubert_class((2, 2), GR24)
    assert all(cls.restriction(I) == 1 for I in GR24.subsets())


def test_opposite_empty_is_point_at_top_subset():
    cls = opposite_schubert_class((), GR12)
    assert cls.support() == [PivotSubset((2,))]
    assert cls.restriction((2,)) == t(1) - t(2)


def test_opposite_support_and_diagonal():
    for shape in (GR12, GR24):
        for lam in shape.partitions():
            cls = opposite_schubert_class(lam, shape)
            I = partition_to_subset(lam, shape)
            diagonal = Polynomial.one()
            for w in cell_weights(I, shape):
                diagonal = diagonal * w
            assert cls.restriction(I) == diagonal, lam
            for J in shape.subsets():
                if cls.restriction(J):
                    assert bruhat_leq(I, J), (lam, J)
                else:
                    assert not bruhat_leq(I, J) or J == I and not diagonal, (lam, J)


def test_opposite_class_matches_substitution_oracle():
    # The same shapes as the Schubert oracle test; the tableau-sum classes
    # are shared through the oracle's cache.
    for shape in UP_TO_N7:
        for lam in shape.partitions():
            cls = opposite_schubert_class(lam, shape)
            oracle = opposite_by_substitution(lam, shape)
            for J in shape.subsets():
                assert cls.restriction(J) == oracle.restriction(J), (shape, lam, J)


def test_duality_pairing_gr12():
    lams = GR12.partitions()
    for lam in lams:
        for mu in lams:
            value = integrate(schubert_class(lam, GR12) * opposite_schubert_class(mu, GR12))
            assert value == (1 if lam == mu else 0), (lam, mu)


# ------------------------------------------------------------- ring structure

def test_multiplicative_identity():
    ones = constant_class(GR24, 1)
    for lam in GR24.partitions():
        cls = schubert_class(lam, GR24)
        assert cls * ones == cls


def test_pointwise_square():
    cls = schubert_class((1,), GR12)
    sq = cls * cls
    assert sq.restriction((1,)) == (t(2) - t(1)) ** 2
    assert sq.restriction((2,)) == 0


def test_products_commute_and_associate():
    lams = GR24.partitions()
    a = schubert_class(lams[1], GR24)
    b = schubert_class(lams[3], GR24)
    c = schubert_class(lams[4], GR24)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_gkm_closure_of_products():
    lams = GR24.partitions()
    for lam in lams:
        for mu in lams:
            assert gkm_check(schubert_class(lam, GR24) * schubert_class(mu, GR24)).ok


def test_gkm_closure_sampled_on_larger_spaces():
    import random

    rng = random.Random(20240817)
    for shape in (GrassmannianShape(5, 2), GrassmannianShape(6, 3)):
        lams = shape.partitions()
        for _ in range(8):
            lam, mu = rng.choice(lams), rng.choice(lams)
            product = schubert_class(lam, shape) * schubert_class(mu, shape)
            assert gkm_check(product).ok, (shape, lam, mu)
            assert gkm_check(schubert_class(lam, shape) + product).ok


@st.composite
def _marked_expressions(draw, shape):
    """A random ring expression in classes that carry the GKM mark."""

    def leaf():
        kinds = ["schubert", "opposite", "constant", "chern"] + (["zeta"] if shape.k == 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "schubert":
            return schubert_class(draw(st.sampled_from(shape.partitions())), shape)
        if kind == "opposite":
            return opposite_schubert_class(draw(st.sampled_from(shape.partitions())), shape)
        if kind == "constant":
            return constant_class(shape, draw(st.integers(-3, 3)))
        if kind == "zeta":
            return projective_zeta(shape.n)
        bundle = draw(st.sampled_from(("S", "S_dual", "Q")))
        rank = shape.k if bundle != "Q" else shape.n - shape.k
        return chern_class_taut(bundle, draw(st.integers(0, rank)), shape)

    c = leaf()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("+", "-", "*", "scalar", "pow", "neg")))
        if op == "+":
            c = c + leaf()
        elif op == "-":
            c = c - leaf()
        elif op == "*":
            c = leaf() * c if draw(st.booleans()) else c * leaf()
        elif op == "scalar":
            scalar = draw(st.sampled_from((-2, 3, t(1) - t(shape.n), t(2) * t(2) + 1)))
            c = scalar * c if draw(st.booleans()) else c * scalar
        elif op == "pow":
            c = c ** draw(st.integers(0, 2))
        else:
            c = -c
    return c


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_marked_expressions_stay_marked_and_pass_gkm(data):
    shape = data.draw(st.sampled_from((GrassmannianShape(4, 1), GR24, GR25, GR36)))
    c = data.draw(_marked_expressions(shape))
    assert c._gkm
    assert gkm_check(c).ok
    # The same values given directly carry no mark, and neither does any
    # expression with such an operand; == ignores the mark.
    plain = EqClass(shape, dict(c.items()))
    assert plain == c and not plain._gkm
    assert not EqClass.from_json_dict(c.to_json_dict())._gkm
    other = schubert_class(data.draw(st.sampled_from(shape.partitions())), shape)
    for mixed in (c + plain, plain - other, other * plain, plain * 2, plain ** 1, -plain):
        assert not mixed._gkm


def test_parallel_construction_is_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    import eqschub.gkmgrass as gkm_mod

    gkm_mod._SCHUBERT_CACHE.clear()
    lams = GR24.partitions()
    with ThreadPoolExecutor(max_workers=4) as pool:
        classes = list(pool.map(lambda lam: schubert_class(lam, GR24), lams * 3))
    for i, lam in enumerate(lams):
        assert classes[i] == classes[i + len(lams)] == classes[i + 2 * len(lams)]
        assert classes[i] == schubert_class(lam, GR24)


# ---------------------------------------------------------------- GKM graph

def test_gkm_graph_projective_line():
    graph = gkm_graph(GR12)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1
    I, J, w = graph.edges[0]
    assert (I, J) == (PivotSubset((1,)), PivotSubset((2,)))
    assert w == t(2) - t(1)


def test_gkm_graph_counts():
    graph = gkm_graph(GR24)
    assert len(graph.vertices) == 6
    assert len(graph.edges) == 12
    shape = GrassmannianShape(6, 3)
    graph = gkm_graph(shape)
    assert len(graph.edges) == 20 * 9 // 2


def test_gkm_graph_edge_weights_in_tangent_spaces():
    from eqschub.ytcomb import tangent_weights

    for shape in UP_TO_N7:
        positive = {I: [] for I in shape.subsets()}
        for I, J, w in gkm_graph(shape).edges:
            assert w in tangent_weights(I, shape)
            assert -w in tangent_weights(J, shape)
            assert _weight_indices(w)[2] == 1  # w = t_j - t_i with j > i
            positive[I].append(w)
            positive[J].append(w)
        for I, at_vertex in positive.items():
            # every tangent direction has its own edge, and no two are proportional
            assert len(set(at_vertex)) == len(at_vertex) == shape.dimension, (shape, I)


def test_gkm_graph_entry_keeps_each_weights_indices():
    # gkm_check reads each edge's (i, j) from the graph's cache entry: they
    # are the indices of its weight t_j - t_i, as `_weight_indices` reads
    # them, and the edge's ends differ by i and j.
    for shape in UP_TO_N7:
        graph, edges = gkmgrass._graph_entry(shape)
        assert graph is gkm_graph(shape)
        assert graph.edges == tuple((I, J, w) for I, J, w, _, _ in edges)
        for I, J, w, i, j in edges:
            assert _weight_indices(w) == (j, i, 1)
            assert set(I.elements) - set(J.elements) == {i}
            assert set(J.elements) - set(I.elements) == {j}


def test_gkm_graph_incident_weights_are_tangent_weights():
    from collections import Counter

    from eqschub.ytcomb import tangent_weights

    graph = gkm_graph(GR24)
    for vertex in graph.vertices:
        incident = []
        for I, J, w in graph.edges:
            if I == vertex:
                incident.append(w)
            elif J == vertex:
                incident.append(-w)
        assert Counter(incident) == Counter(tangent_weights(vertex, GR24))


def test_gkm_check_results():
    assert gkm_check(schubert_class((2, 1), GR24)).ok
    assert gkm_check(constant_class(GR24, 42)).ok
    bad = EqClass(GR12, {(1,): 1})
    result = gkm_check(bad)
    assert not result.ok
    assert len(result.violations) == 1
    violation = result.violations[0]
    assert violation.difference == 1
    assert violation.weight == t(2) - t(1)


def _assert_matches_division_oracle(c):
    # equal violations: the same edges in the same order, weights and differences
    assert gkm_check(c) == gkm_check_by_division(c)


def test_gkm_check_matches_division_oracle_on_gkm_suite():
    for shape in (GR24, GR36):
        lams = shape.partitions()
        for i, lam in enumerate(lams):
            _assert_matches_division_oracle(schubert_class(lam, shape))
            for mu in lams[i:]:
                _assert_matches_division_oracle(schubert_class(lam, shape) * schubert_class(mu, shape))


def _random_t_poly(rng, n, max_degree):
    value = Polynomial.zero()
    while not value:
        for _ in range(rng.randint(1, 3)):
            term = Polynomial.integer(rng.choice((-3, -2, -1, 1, 2, 5)))
            for _ in range(rng.randint(0, max_degree)):
                term = term * t(rng.randint(1, n))
            value = value + term
    return value


def test_gkm_check_matches_division_oracle_on_perturbed_classes():
    rng = random.Random(20261018)
    for shape in (GR24, GR25, GR36):
        lams, subsets = shape.partitions(), shape.subsets()
        for _ in range(12):
            base = schubert_class(rng.choice(lams), shape) * schubert_class(rng.choice(lams), shape)
            value = _random_t_poly(rng, shape.n, 3)
            if rng.random() < 0.5:  # a multiple of t_j - t_i passes the edges of that weight
                i, j = rng.sample(range(1, shape.n + 1), 2)
                value = value * (t(j) - t(i))
            perturbed = base + EqClass(shape, {rng.choice(subsets): value})
            assert not gkm_check(perturbed).ok
            _assert_matches_division_oracle(perturbed)


def _sigma_products(shape):
    """Every (lam, mu, e), lam <= mu in list order, with sigma_lam * sigma_mu *
    sigma_1^e of degree at most dim."""
    lams = shape.partitions()
    return [
        (lam, mu, e)
        for i, lam in enumerate(lams)
        for mu in lams[i:]
        for e in range(shape.dimension - lam.weight - mu.weight + 1)
    ]


def assert_integral_at_points(c):
    """integrate(c) against the localization sum of c at three integer points
    with distinct coordinates, none of them the point (1, ..., n) the engine
    reads classes of degree at most dim at."""
    n = c.shape.n
    points = [random.Random(seed).sample(range(-20, 21), n) for seed in (1, 2, 3)]
    assert list(range(1, n + 1)) not in points
    value = integrate(c)
    for point in points:
        assert value_at(value, point) == integral_at_point(c, point), point


def assert_first_violation(bad):
    """integrate refuses bad with the first violation of the division oracle."""
    expected = gkm_check_by_division(bad).violations
    assert expected
    with pytest.raises(NotEquivariantClass) as got:
        integrate(bad)
    assert got.value.violation == expected[0]
    assert str(got.value) == f"not an equivariant class: {expected[0]}"


def test_integrate_matches_rational_sum_oracle():
    cases = [(GR24, *p) for p in _sigma_products(GR24)] + [(GR25, *p) for p in _sigma_products(GR25)]
    # Gr(3,6) has 396 such classes; a fixed sample stands in for the rest.
    cases += [(GR36, *p) for p in random.Random(7).sample(_sigma_products(GR36), 24)]
    # degree above dim
    cases += [(GR24, (), (), 5), (GR24, (2, 1), (), 3), (GR25, (1,), (), 7), (GR36, (), (), 10)]
    for shape, lam, mu, e in cases:
        c = schubert_class(lam, shape) * schubert_class(mu, shape) * schubert_class((1,), shape) ** e
        assert_integral_at_points(c)


def test_integrate_matches_oracle_on_cli_expressions():
    for n, k, text in ((5, 2, "(s1 + s2)^3 - s2,1*s1"), (4, 2, "-(s1 - 2)^2*s1,1 + 3")):
        c = parse_class_expr(text, GrassmannianShape(n, k))
        assert_integral_at_points(c)


def test_integrate_perturbed_top_degree_class_keeps_message():
    for shape, site in ((GR24, (1, 3)), (GR25, (2, 5)), (GR36, (1, 4, 6))):
        top = schubert_class((1,), shape) ** shape.dimension
        assert_first_violation(top + EqClass(shape, {site: t(1) ** shape.dimension}))


def test_integrate_matches_rational_sum_above_dim_on_gr36():
    # Products of degree above dim are sparse and go through the basis
    # expansion; the sigma_1 powers are dense and take the rational sum.
    lams = GR36.partitions()
    products = [
        schubert_class(lam, GR36) * schubert_class(mu, GR36)
        for i, lam in enumerate(lams)
        for mu in lams[i:]
        if lam.weight + mu.weight > GR36.dimension
    ]
    assert len(products) == 93
    sigma1 = schubert_class((1,), GR36)
    for c in products + [sigma1 ** 10, sigma1 ** 11]:
        assert_integral_at_points(c)


def test_integrate_perturbed_sparse_class_above_dim_keeps_message():
    for lam, mu, site in (((3, 2), (3, 3, 1), (1, 2, 3)), ((3, 3), (3, 3, 2), (2, 3, 6))):
        c = schubert_class(lam, GR36) * schubert_class(mu, GR36)
        bad = c + EqClass(GR36, {site: t(1) ** 10})
        assert 2 * len(bad.support()) <= len(GR36.subsets())
        with pytest.raises(NotInSpan):
            expand_in_basis(bad)
        assert_first_violation(bad)


def test_integrate_sigma1_power_on_gr37():
    # standard tableaux of the 3 x 4 box: 12! / (6*5*4*3 * 5*4*3*2 * 4*3*2*1)
    shape = GrassmannianShape(7, 3)
    assert integrate(schubert_class((1,), shape) ** 12) == 462


@st.composite
def _schubert_combinations(draw, shape):
    lams = shape.partitions()
    total = EqClass(shape, {})
    for _ in range(draw(st.integers(1, 3))):
        term = schubert_class(draw(st.sampled_from(lams)), shape) * draw(st.integers(-4, 4))
        if draw(st.booleans()):
            term = term * schubert_class(draw(st.sampled_from(lams)), shape)
        total = total + term
    return total


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_schubert_combinations_pass_gkm_and_integrate_linearly(data):
    shape = data.draw(st.sampled_from((GR24, GR25)))
    a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
    X = data.draw(_schubert_combinations(shape))
    Y = data.draw(_schubert_combinations(shape))
    assert gkm_check(X).ok and gkm_check(Y).ok
    assert integrate(X * a + Y * b) == integrate(X) * a + integrate(Y) * b


# ----------------------------------------------------------- basis expansion

def test_expand_basis_element():
    for lam in GR24.partitions():
        expansion = expand_in_basis(schubert_class(lam, GR24))
        assert expansion.coeffs == {lam: Polynomial.one()}


def test_expand_all_ones():
    expansion = expand_in_basis(constant_class(GR24, 1))
    assert expansion.coeffs == {Partition(()): Polynomial.one()}


def test_expand_square_projective_line():
    cls = schubert_class((1,), GR12)
    expansion = expand_in_basis(cls * cls)
    assert expansion.coeffs == {Partition((1,)): t(2) - t(1)}


def test_expand_reconstructs():
    lams = GR24.partitions()
    product = schubert_class(lams[2], GR24) * schubert_class(lams[4], GR24)
    expansion = expand_in_basis(product)
    assert expansion.reconstruct() == product


def test_expand_recovers_planted_combination():
    combo = (
        schubert_class((1,), GR24)
        + schubert_class((2, 1), GR24) * (t(2) - t(1))
        + schubert_class((2, 2), GR24) * 3
    )
    expansion = expand_in_basis(combo)
    assert expansion.coeffs == {
        Partition((1,)): Polynomial.one(),
        Partition((2, 1)): t(2) - t(1),
        Partition((2, 2)): Polynomial.integer(3),
    }


@st.composite
def _planted_coefficients(draw, shape):
    """Nonzero Z[t] coefficients, integers or linear forms, on a few partitions."""
    planted = {}
    for lam in draw(st.lists(st.sampled_from(shape.partitions()), max_size=4, unique=True)):
        coeff = Polynomial.integer(draw(st.integers(-4, 4)))
        if draw(st.booleans()):
            for i in range(1, shape.n + 1):
                coeff = coeff + draw(st.integers(-2, 2)) * t(i)
        if coeff:
            planted[lam] = coeff
    return planted


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_expand_round_trip_with_polynomial_coefficients(data):
    shape = data.draw(st.sampled_from((GR24, GR25)))
    planted = data.draw(_planted_coefficients(shape))
    X = EqClass(shape, {})
    for lam, coeff in planted.items():
        X = X + schubert_class(lam, shape) * coeff
    expansion = expand_in_basis(X)
    assert expansion.coeffs == planted
    assert expansion.reconstruct() == X


def test_expand_not_in_span():
    bad = EqClass(GR12, {(1,): 1})
    with pytest.raises(NotInSpan) as info:
        expand_in_basis(bad)
    assert info.value.subset == PivotSubset((1,))


def test_expand_not_in_span_reports_perturbed_point():
    X = schubert_class((1,), GR24) * schubert_class((2,), GR24) + schubert_class((1,), GR24) * (t(3) - t(1))
    for lam in GR24.partitions():
        if not lam.parts:
            continue  # the top point has no normal weights, so any value there is in the span
        point = partition_to_subset(lam, GR24)
        with pytest.raises(NotInSpan) as info:
            expand_in_basis(X + EqClass(GR24, {point: 1}))
        assert info.value.subset == point
        assert info.value.remainder == 1


# -------------------------------------------------------- structure constants

def test_structure_constants_projective_line():
    expansion = structure_constants((1,), (1,), GR12)
    assert expansion.coeffs == {Partition((1,)): t(2) - t(1)}


def test_structure_constants_identity():
    for lam in GR24.partitions():
        expansion = structure_constants(lam, (), GR24)
        assert expansion.coeffs == {lam: Polynomial.one()}


def test_structure_constants_classical_limit():
    expansion = structure_constants((1,), (1,), GR24)
    at_zero = {lam: c.constant_term() for lam, c in expansion.coeffs.items()}
    assert at_zero[Partition((2,))] == 1
    assert at_zero[Partition((1, 1))] == 1
    assert at_zero.get(Partition((1,)), 0) == 0


def test_structure_constants_homogeneous_degrees():
    lams = GR24.partitions()
    for lam in lams:
        for mu in lams:
            expansion = structure_constants(lam, mu, GR24)
            for nu, coeff in expansion.coeffs.items():
                want = lam.weight + mu.weight - nu.weight
                assert want >= 0
                assert coeff.is_homogeneous()
                assert coeff.degree() == want
                assert nu.contains(lam) and nu.contains(mu)


def test_expansion_respects_ring_structure():
    # expanding a product agrees with multiplying expansions through the
    # structure constants
    lams = GR24.partitions()
    a, b = lams[1], lams[2]
    via_product = structure_constants(a, b, GR24)
    total = EqClass(GR24, {})
    for nu, coeff in via_product.coeffs.items():
        total = total + schubert_class(nu, GR24) * coeff
    assert total == schubert_class(a, GR24) * schubert_class(b, GR24)


def test_structure_constants_follow_equivariant_chevalley_rule():
    # sigma_1 * sigma_lam = sigma_1|lam * sigma_lam + the sum of sigma_nu over
    # the partitions nu that add one box to lam inside the box (Knutson-Tao,
    # Molev-Sagan), with sigma_1|lam from the tableau-sum oracle.  Every lam
    # on every Gr(k, n) with n <= 7 and a fixed sample of 8 lam on Gr(4,8),
    # under 3 s; all 70 lam on Gr(4,8) alone take about 3.6 s.
    gr48 = GrassmannianShape(8, 4)
    sample = [(), (1,), (2, 1), (3, 1, 1), (2, 2, 2), (4, 2, 1), (3, 3, 2, 1), (4, 4, 4, 3)]
    cases = [(shape, lam) for shape in UP_TO_N7 for lam in shape.partitions()]
    cases += [(gr48, Partition(lam)) for lam in sample]
    for shape, lam in cases:
        sigma1 = schubert_by_tableau_sum(Partition((1,)), shape)
        want = {
            nu: Polynomial.one()
            for nu in shape.partitions()
            if nu.weight == lam.weight + 1 and nu.contains(lam)
        }
        diagonal = sigma1.restriction(partition_to_subset(lam, shape))
        if diagonal:
            want[lam] = diagonal
        assert structure_constants((1,), lam, shape).coeffs == want, (shape, lam)


def test_sigma1_closed_form_matches_schubert_values():
    # The recursion's divisor sigma_1|J - sigma_1|I, sign included, on every
    # pair of points of every Gr(k, n) with n <= 7; sigma_1 is zero at the
    # last subset, so the pairs with I last check sigma_1|J itself.
    for shape in UP_TO_N7:
        values = {J: _schubert_restriction(Partition((1,)), J, shape) for J in shape.subsets()}
        assert not values[shape.subsets()[-1]]
        for I in values:
            for J in values:
                assert _pivot_sum(I) - _pivot_sum(J) == values[J] - values[I], (I, J)


def test_structure_constants_match_expansion_oracle():
    # The Chevalley recursion against expand_in_basis of the product class:
    # equal dicts in equal order, on every ordered pair of every Gr(k, n)
    # with n <= 6 and on 30 seeded pairs of Gr(3,7).  The product class is
    # the same in either order, so one oracle call serves both orders.
    cases = [(shape, a, b) for shape in UP_TO_N6
             for i, a in enumerate(shape.partitions()) for b in shape.partitions()[i:]]
    gr37 = GrassmannianShape(7, 3)
    rng = random.Random(2701)
    cases += [(gr37, *rng.choices(gr37.partitions(), k=2)) for _ in range(30)]
    for shape, a, b in cases:
        want = list(structure_constants_by_expansion(a, b, shape).coeffs.items())
        assert list(structure_constants(a, b, shape).coeffs.items()) == want, (shape, a, b)
        assert list(structure_constants(b, a, shape).coeffs.items()) == want, (shape, b, a)


def test_structure_constants_read_held_classes(monkeypatch):
    # sigma_mu|lam' comes from sigma_mu's class when the caller has built it
    # and from the flagged sum at each point when not: the same dict in the
    # same order, on every ordered pair of every Gr(k, n) with n <= 6 and on
    # 8 seeded pairs of Gr(4,8); the call with an empty cache builds and
    # stores no class.
    gr48 = GrassmannianShape(8, 4)
    rng = random.Random(3001)
    cases = [(shape, [(a, b) for a in shape.partitions() for b in shape.partitions()])
             for shape in UP_TO_N6]
    cases.append((gr48, [tuple(rng.choices(gr48.partitions(), k=2)) for _ in range(8)]))
    for shape, pairs in cases:
        monkeypatch.setattr(gkmgrass, "_SCHUBERT_CACHE", {})
        bare = [list(structure_constants(a, b, shape).coeffs.items()) for a, b in pairs]
        assert not gkmgrass._SCHUBERT_CACHE, shape
        for lam in shape.partitions():
            schubert_class(lam, shape)
        held = [list(structure_constants(a, b, shape).coeffs.items()) for a, b in pairs]
        assert held == bare, shape


@pytest.mark.parametrize("mu", [(3, 2, 1)] + random.Random(2702).sample(
    [lam.parts for lam in GrassmannianShape(8, 4).partitions()], 3))
def test_structure_constants_on_gr48(mu):
    # sigma_{3,2,1} * sigma_mu on Gr(4,8): the degree-0 constants are the
    # Littlewood-Richardson numbers, each c^nu is homogeneous of degree
    # |lam| + |mu| - |nu|, and each is Graham-positive.
    shape, lam = GrassmannianShape(8, 4), Partition((3, 2, 1))
    mu = Partition(mu)
    coeffs = structure_constants(lam, mu, shape).coeffs
    top = lam.weight + mu.weight
    for nu in shape.partitions():
        if nu.weight == top:
            assert coeffs.get(nu, 0) == lr_coefficient(lam.parts, mu.parts, nu.parts), nu
    for nu, coeff in coeffs.items():
        assert coeff.is_homogeneous() and coeff.degree() == top - nu.weight, nu
        assert positivity_certificate(coeff, shape.n).ok, nu


# ----------------------------------------------------------------- positivity

def test_positivity_examples():
    cert = positivity_certificate(t(2) - t(1))
    assert cert.ok
    assert cert.expansion == y(1)

    cert = positivity_certificate(t(1) - t(2))
    assert not cert.ok
    assert "negative coefficient" in cert.witness

    cert = positivity_certificate(t(3) - t(1))
    assert cert.ok
    assert cert.expansion == y(1) + y(2)


def test_positivity_reports_surviving_t():
    cert = positivity_certificate(t(1), 3)
    assert not cert.ok
    assert "t variable survives" in cert.witness


def test_positivity_constants():
    assert positivity_certificate(Polynomial.integer(5)).ok
    assert positivity_certificate(Polynomial.zero()).ok
    assert not positivity_certificate(Polynomial.integer(-2)).ok


def test_positivity_respects_explicit_n():
    cert3 = positivity_certificate(t(3) - t(1), 3)
    cert5 = positivity_certificate(t(3) - t(1), 5)
    assert cert3.ok and cert5.ok
    assert cert3.expansion == cert5.expansion == y(1) + y(2)


def _same_certificate(p, n=None):
    chain, oracle = positivity_certificate(p, n), certificate_by_substitution(p, n)
    assert (chain.ok, str(chain.expansion), chain.witness) == (
        oracle.ok, str(oracle.expansion), oracle.witness
    ), (p, n)
    assert chain.expansion == oracle.expansion
    return chain


def test_certificate_chain_matches_substitution_on_fixed_cases():
    w = lambda j, i: t(j) - t(i)
    assert _same_certificate(w(3, 1) * w(2, 1) ** 2 + 2 * w(4, 2), 4).ok
    assert not _same_certificate(w(1, 3) * w(2, 1)).ok  # negative coefficient
    assert not _same_certificate(t(2) * w(3, 1), 5).ok  # t survives, n above the top
    assert not _same_certificate(t(1) ** 2 - 3, 1).ok  # n = 1
    assert _same_certificate(Polynomial.integer(7), 4).expansion == 7  # no t at all
    assert _same_certificate(0).ok
    assert _same_certificate(Polynomial.parse("t1*t2^65534"), 2).expansion.degree() == 65535


def test_certificate_overflow_on_both_routes():
    # The image of a monomial of total degree 65536 or more holds t2 to that
    # degree; both routes refuse it before expanding anything.
    start = time.perf_counter()
    for route in (positivity_certificate, certificate_by_substitution):
        for text in ("t1*t2^65535", "t1^40000*t2^40000"):
            with pytest.raises(MonomialOverflow):
                route(Polynomial.parse(text), 2)
    assert time.perf_counter() - start < 1.0


@st.composite
def _t_polynomials(draw):
    """A sum of products of weights t_j - t_i on t_1..t_top, which is
    translation-invariant; both orientations and signed scalars give
    negative coefficients.  Optionally plus monomials, which are not
    invariant, so some t survives."""
    top = draw(st.integers(0, 5))
    total = Polynomial.integer(draw(st.integers(-3, 3)))
    if not top:
        return total
    index = st.integers(1, top)
    positive = draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        term = Polynomial.integer(draw(st.integers(0 if positive else -3, 3)))
        for _ in range(draw(st.integers(0, 4))):
            i, j = sorted((draw(index), draw(index)), reverse=not positive)
            term = term * (t(j) - t(i))
        total = total + term
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            total = total + draw(st.integers(-3, 3)) * t(draw(index)) ** draw(st.integers(1, 3))
    return total


@given(_t_polynomials(), st.data())
@settings(max_examples=200, deadline=None)
def test_certificate_chain_matches_substitution(p, data):
    top = max((idx for _, idx in p.variables()), default=0)
    n = data.draw(st.one_of(st.none(), st.integers(max(top, 1), top + 3)))
    _same_certificate(p, n)


# ---------------------------------------------------------------- integration

def test_integrate_zeta_powers():
    for n in range(2, 6):
        zeta = projective_zeta(n)
        power = constant_class(GrassmannianShape(n, 1), 1)
        for k in range(n):
            value = integrate(power)
            assert value == (1 if k == n - 1 else 0), (n, k)
            power = power * zeta


def test_integrate_degree_vanishing():
    for lam in GR24.partitions():
        if lam.weight < GR24.dimension:
            assert integrate(schubert_class(lam, GR24)) == 0
    assert integrate(EqClass(GR24, {})) == 0


def test_integrate_four_lines():
    sigma1 = schubert_class((1,), GR24)
    assert integrate(sigma1 ** 4) == 2


def test_integrate_point_class_is_one():
    point = schubert_class((2, 2), GR24)
    assert integrate(point) == 1


def test_integrate_rejects_non_gkm_class():
    assert_first_violation(EqClass(GR12, {(1,): 1}))
    # a dense sigma_1 power above dim, perturbed at one point
    dense = schubert_class((1,), GR36) ** 10
    assert_first_violation(dense + EqClass(GR36, {(2, 4, 5): t(3) ** 10}))


# ------------------------------------------------------------ projective space

def test_zeta_restrictions():
    zeta = projective_zeta(3)
    for i in (1, 2, 3):
        assert zeta.restriction((i,)) == -t(i)


def test_zeta_defining_relation():
    for n in (2, 3, 4):
        shape = GrassmannianShape(n, 1)
        zeta = projective_zeta(n)
        relation = constant_class(shape, 1)
        for j in range(1, n + 1):
            relation = relation * (zeta + constant_class(shape, t(j)))
        assert not relation


def test_zeta_point_classes():
    # the product over j != i of (zeta + t_j) is the class of the i-th point
    for n in (2, 3):
        shape = GrassmannianShape(n, 1)
        zeta = projective_zeta(n)
        for i in range(1, n + 1):
            point = constant_class(shape, 1)
            for j in range(1, n + 1):
                if j != i:
                    point = point * (zeta + constant_class(shape, t(j)))
            I = PivotSubset((i,))
            assert point == EqClass(shape, {I: tangent_euler(I, shape)})


def test_zeta_plus_t2_is_first_point_class():
    # on the projective line, zeta + t_2 restricts to (t2 - t1, 0)
    cls = projective_zeta(2) + constant_class(GR12, t(2))
    assert cls == EqClass(GR12, {(1,): t(2) - t(1)})


# ---------------------------------------------------------------- Chern classes

def test_chern_examples():
    c1 = chern_class_taut("S", 1, GR12)
    assert c1.restriction((1,)) == t(1)
    assert c1.restriction((2,)) == t(2)
    c0 = chern_class_taut("Q", 0, GR24)
    assert all(c0.restriction(I) == 1 for I in GR24.subsets())
    dual = chern_class_taut("S_dual", 1, GR12)
    assert dual.restriction((1,)) == -t(1)


def test_chern_classes_are_elementary_symmetric_in_the_roots():
    for shape in (s for s in UP_TO_N7 if s.n <= 6):
        for bundle, rank in (("S", shape.k), ("S_dual", shape.k), ("Q", shape.box_width)):
            for i in range(rank + 1):
                c = chern_class_taut(bundle, i, shape)
                for J in shape.subsets():
                    if bundle == "S":
                        roots = [t(j) for j in J.elements]
                    elif bundle == "S_dual":
                        roots = [-t(j) for j in J.elements]
                    else:
                        roots = [t(j) for j in J.missing(shape.n)]
                    assert c.restriction(J) == elementary_symmetric(i, roots), (bundle, i, shape, J)


def test_chern_whitney_sum():
    # total Chern classes of S and Q multiply to that of the trivial bundle
    shape = GR24
    ambient = Polynomial.one()
    for j in range(1, 5):
        ambient = ambient * (t(j) + 1)
    for J in shape.subsets():
        total = Polynomial.zero()
        for a in range(0, 3):
            for b in range(0, 3):
                total = total + (
                    chern_class_taut("S", a, shape).restriction(J)
                    * chern_class_taut("Q", b, shape).restriction(J)
                )
        assert total == ambient


def test_chern_index_range():
    from eqschub.exactalg import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        chern_class_taut("S", 3, GR24)
    with pytest.raises(IndexOutOfRange):
        chern_class_taut("Q", -1, GR24)
    with pytest.raises(ValueError):
        chern_class_taut("T", 1, GR24)


def test_chern_class_of_s_dual_vs_sigma1():
    # the one-row class and c_1(S_dual) differ by a constant multiple of the
    # identity, the shift coming from the u specialization u_i -> -t_{n+1-i}
    diff = schubert_class((1,), GR24) - chern_class_taut("S_dual", 1, GR24)
    assert diff == constant_class(GR24, t(4) + t(3))


# ----------------------------------------------------------------- Kempf-Laksov

def test_kempf_laksov_projective_line():
    cls = kempf_laksov_class((1,), GR12)
    assert cls.restriction((1,)) == t(2) - t(1)
    assert cls.restriction((2,)) == 0
    assert cls == schubert_class((1,), GR12)


def test_kempf_laksov_empty_shape():
    cls = kempf_laksov_class((), GR24)
    assert all(cls.restriction(I) == 1 for I in GR24.subsets())


def test_kempf_laksov_box_2x2():
    for lam in GR24.partitions():
        assert kempf_laksov_class(lam, GR24) == schubert_class(lam, GR24), lam


def test_shared_chern_series_matches_two_loop_ratio():
    # kempf_laksov_class reads row i from c(Q), divided by 1 + t_a for each
    # a <= m_i; its truncation degree lambda_1 + k - 1 is at most n - 1.
    for shape in UP_TO_N7:
        n = shape.n
        for J in shape.subsets():
            series = _chern_series(J.missing(n), n - 1)
            assert series == chern_ratio(J, 0, n, n - 1), J
            for m in range(1, n + 1):
                series = _divide_series(series, m)
                assert series == chern_ratio(J, m, n, n - 1), (J, m)


@st.composite
def _matrices(draw):
    """A matrix with c columns and its width c: square of size 0-5, or
    5 x 2, 6 x 3 or 7 x 3, its rows labelled by distinct integers in a drawn
    order.  Entries are small t-polynomials with signed coefficients, about
    a third of them zero."""
    size, width = draw(st.sampled_from([(s, s) for s in range(6)] + [(5, 2), (6, 3), (7, 3)]))

    def entry():
        if not draw(st.integers(0, 2)):
            return Polynomial.zero()
        total = Polynomial.integer(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 2))):
            total = total + draw(st.integers(-3, 3)) * t(draw(st.integers(1, 4))) ** draw(st.integers(1, 2))
        return total

    labels = draw(st.permutations(range(-3, size - 3)))
    return {p: [entry() for _ in range(width)] for p in labels}, width


@given(_matrices())
@settings(max_examples=150, deadline=None)
@seed(2501)
def test_det_matches_permutation_sum(drawn):
    """Every maximal minor, its rows in the drawn order, against the
    permutation sum of those rows; a square matrix has one."""
    matrix, width = drawn
    selections = list(combinations(matrix, width))
    assert list(_minors(matrix, selections)) == [
        det_by_permutations([matrix[p] for p in rows]) for rows in selections]


@pytest.mark.parametrize("n, k", [(6, 2), (7, 3)])
def test_kl_mismatches_empty(n, k):
    """The per-point sweep of `kl-verify`: each maximal minor of the point's
    matrix against the Schubert restriction there."""
    assert kl_mismatches(GrassmannianShape(n, k)) == []


def test_kempf_laksov_box_check():
    with pytest.raises(DoesNotFitBox):
        kempf_laksov_class((3, 3), GR24)
