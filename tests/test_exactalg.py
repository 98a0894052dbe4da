import pickle
import random
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from eqschub.exactalg import (
    FAMILIES,
    MAX_EXPONENT,
    MAX_INDEX,
    EqschubError,
    IndexOutOfRange,
    MonomialOverflow,
    NotDivisible,
    ParseError,
    Polynomial,
    UnmappedVariable,
    elementary_symmetric,
    ratf_sum,
    _agree_at_diagonal,
    _divide,
    _merge,
    _render,
    _top_degree_value,
    t,
    u,
    x,
    y,
)

from oracles import (
    divide_by_sympy,
    parse_by_tokens,
    poly_to_sympy,
    tuple_add,
    tuple_agree_at_diagonal,
    tuple_divide,
    tuple_max_exponent,
    tuple_mul,
    tuple_str,
    tuple_substitute_parts,
    tuple_terms,
    tuple_variable,
)


# ------------------------------------------------------------------ ring ops

def test_difference_of_squares():
    assert (t(1) + t(2)) * (t(1) - t(2)) == t(1) ** 2 - t(2) ** 2


def test_additive_identity():
    p = 3 * t(1) * t(2) - t(3) ** 2
    assert p + 0 == p
    assert p + Polynomial.zero() == p


def test_refactor_by_division_chain():
    product = (t(2) - t(1)) * (t(3) - t(1)) * (t(3) - t(2))
    q1 = product.exact_divide(t(2) - t(1))
    q2 = q1.exact_divide(t(3) - t(1))
    assert q2 == t(3) - t(2)


def test_zero_polynomial_degree_is_minus_infinity():
    assert Polynomial.zero().degree() == float("-inf")
    assert (t(1) * t(2)).degree() == 2


def test_normal_form_equality():
    assert t(1) - t(1) == 0
    assert not (t(1) - t(1))
    assert hash(t(1) + t(2)) == hash(t(2) + t(1))


def test_constant_hashes_like_the_int_it_equals():
    for value in (3, 0, -1):
        constant = Polynomial.integer(value)
        assert constant == value and hash(constant) == hash(value)
        assert len({value, constant}) == 1
        assert {value: "x"}.get(constant) == "x"
    assert hash(Polynomial.zero()) == hash(0)
    assert len({0, Polynomial.zero(), t(1) - t(1)}) == 1


def test_pickle_round_trips_at_every_protocol():
    for p in (Polynomial.zero(), Polynomial.integer(-7), t(3) - t(1),
              2 ** 70 * t(1) ** MAX_EXPONENT * y(MAX_INDEX) - x(2) + u(1)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(p, protocol))
            assert type(back) is Polynomial
            assert back == p and hash(back) == hash(p) and str(back) == str(p)


def test_power():
    assert (t(1) + 1) ** 3 == t(1) ** 3 + 3 * t(1) ** 2 + 3 * t(1) + 1
    assert t(1) ** 0 == 1
    with pytest.raises(ValueError):
        t(1) ** -1


def test_homogeneous_components():
    p = (t(1) + 1) * (t(2) + 2)
    assert p.homogeneous_component(2) == t(1) * t(2)
    assert p.homogeneous_component(0) == 2
    assert not p.is_homogeneous()
    assert (t(1) * t(2)).is_homogeneous()
    assert Polynomial.zero().is_homogeneous()


# ------------------------------------------------------------- exact_divide

def test_exact_divide_basic():
    assert (t(2) ** 2 - t(1) ** 2).exact_divide(t(2) - t(1)) == t(1) + t(2)


def test_exact_divide_by_one():
    p = 5 * t(1) ** 3 - t(2)
    with pytest.raises(ValueError):
        p.exact_divide(Polynomial.one())


def test_exact_divide_failure_carries_remainder():
    with pytest.raises(NotDivisible) as info:
        (t(2) - t(1)).exact_divide(t(3) - t(1))
    assert info.value.remainder


def test_exact_divide_integer_coefficients():
    # Only weights t_a - t_b divide; every other nonzero divisor is refused.
    for divisor in (Polynomial.one(), Polynomial.integer(2), t(1), t(1) + t(2)):
        with pytest.raises(ValueError, match="weight"):
            (2 * t(1) + 2 * t(2)).exact_divide(divisor)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        t(1).exact_divide(Polynomial.zero())


# ------------------------------------------------ sums over weight products

def test_ratf_antisymmetric_pair_cancels():
    assert ratf_sum([(1, [t(2) - t(1)]), (1, [t(1) - t(2)])]) == 0


def test_ratf_projective_line_pushforward():
    # (-t1)/(t2-t1) + (-t2)/(t1-t2) = 1
    assert ratf_sum([(-t(1), [t(2) - t(1)]), (-t(2), [t(1) - t(2)])]) == 1


def test_ratf_projective_plane_top_power():
    # sum over i of (-t_i)^2 / prod_{j != i} (t_j - t_i) = 1
    pieces = [((-t(i)) ** 2, [t(j) - t(i) for j in (1, 2, 3) if j != i])
              for i in (1, 2, 3)]
    assert ratf_sum(pieces) == 1


def test_ratf_constant_sum_vanishes():
    # sum over i of 1 / prod_{j != i} (t_j - t_i) = 0 for n = 3
    pieces = [(1, [t(j) - t(i) for j in (1, 2, 3) if j != i]) for i in (1, 2, 3)]
    assert ratf_sum(pieces) == 0


def test_ratf_sum_divides_one_piece_by_a_reversed_weight():
    # (t1^2 - t2^2) / (t1 - t2), with t1 - t2 stored as the reversed weight t2 - t1
    assert ratf_sum([(t(1) ** 2 - t(2) ** 2, [t(1) - t(2)])]) == t(1) + t(2)


def test_ratf_sum_that_is_not_a_polynomial_is_not_divisible():
    with pytest.raises(NotDivisible):
        ratf_sum([(1, [t(2) - t(1)])])
    # 1/(t2-t1) + 1/(t3-t1) = (t2 + t3 - 2 t1) / ((t2-t1)(t3-t1))
    with pytest.raises(NotDivisible):
        ratf_sum([(1, [t(2) - t(1)]), (1, [t(3) - t(1)])])


def test_ratf_rejects_denominator_that_is_not_a_weight():
    for form in (t(1), t(1) + t(2), 2 * t(1) - 2 * t(2)):
        with pytest.raises(ValueError, match="weight"):
            ratf_sum([(1, [form])])
    with pytest.raises(ValueError):
        ratf_sum([(t(1), [t(2) - t(1)]), (1, [t(3)])])
    with pytest.raises(ZeroDivisionError):
        ratf_sum([(1, [t(1) - t(1)])])


# ------------------------------------------------------ elementary symmetric

def test_elementary_symmetric_basic():
    forms = [t(i) for i in (1, 2, 3)]
    assert elementary_symmetric(2, forms) == t(1) * t(2) + t(1) * t(3) + t(2) * t(3)
    assert elementary_symmetric(0, forms) == 1


def test_elementary_symmetric_top_is_product():
    forms = [t(4) - t(1), t(3) - t(2), t(2)]
    product = Polynomial.one()
    for f in forms:
        product = product * f
    assert elementary_symmetric(3, forms) == product
    assert elementary_symmetric(2, [2, -t(1), 3]) == -5 * t(1) + 6


def test_elementary_symmetric_range():
    with pytest.raises(IndexOutOfRange):
        elementary_symmetric(3, [t(1)])
    with pytest.raises(IndexOutOfRange):
        elementary_symmetric(-1, [t(1)])


def test_elementary_symmetric_generating_identity():
    # prod (1 + chi_i) has e_d as its degree-d part, for up to 6 forms
    forms = [t(j) - t(i) for i, j in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))]
    product = Polynomial.one()
    for f in forms:
        product = product * (f + 1)
    for d in range(len(forms) + 1):
        assert product.homogeneous_component(d) == elementary_symmetric(d, forms)


# ------------------------------------------------------------- substitution

def test_substitute_interpolation_example():
    p = x(1) - u(1)
    image = p.substitute({("x", 1): -t(1), ("u", 1): -t(2)})
    assert image == t(2) - t(1)


def test_substitute_identity():
    p = 3 * t(1) ** 2 * t(2) - t(2)
    assert p.substitute({("t", 1): t(1), ("t", 2): t(2)}) == p


def test_substitute_difference_basis():
    image = t(1).substitute({("t", 1): t(2) - y(1)})
    assert image == t(2) - y(1)


def test_substitute_unmapped():
    with pytest.raises(UnmappedVariable):
        (t(1) + t(2)).substitute({("t", 1): t(1)})


def test_substitute_refuses_overflow_before_expanding():
    # The image of t1^40000*t2^40000 under t1 -> t1 + t2 holds t2^80000.  A
    # term with a zero image contributes nothing, however large the powers
    # of its other factors would be.
    p = Polynomial.parse("t1^40000*t2^40000")
    with pytest.raises(MonomialOverflow):
        p.substitute({("t", 1): t(1) + t(2), ("t", 2): t(2)})
    assert p.substitute({("t", 1): 0, ("t", 2): t(2) ** 2}) == 0
    assert (p + t(1)).substitute({("t", 1): t(3), ("t", 2): 0}) == t(3)


# ----------------------------------------------------------------- rendering

def test_canonical_rendering():
    assert str(Polynomial.zero()) == "0"
    assert str(t(2) - t(1)) == "t2 - t1"
    assert str(-3 * t(1) ** 2 * t(2)) == "-3*t1^2*t2"
    assert str(-3 * t(1) ** 2 * t(2) + t(3)) == "-3*t1^2*t2 + t3"
    assert str(Polynomial.integer(7)) == "7"
    assert str(t(1) * x(2) * u(3) * y(1)) == "t1*x2*u3*y1"


def test_parse_round_trip():
    for p in (
        Polynomial.zero(),
        t(2) - t(1),
        -3 * t(1) ** 2 * t(2) + t(3) - 7,
        (t(1) + t(2) + x(1)) ** 3,
        y(2) * u(1) - 4,
    ):
        assert Polynomial.parse(str(p)) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        Polynomial.parse("t1 +")
    with pytest.raises(ParseError):
        Polynomial.parse("z1")
    with pytest.raises(ParseError):
        Polynomial.parse("")
    for text in ("t1 t2", "3 4", "t1^", "t0", "x1 + u0"):
        with pytest.raises(ParseError):
            Polynomial.parse(text)


def test_parse_messages():
    # Text off the grammar is named from the term where it goes off.
    cases = {
        "t1 + t2 t3": "bad polynomial text at '+ t2 t3'",
        "t1 +": "bad polynomial text at '+'",
        "z1": "bad polynomial text at 'z1'",
        "3*t1^0 - 1": "bad polynomial text at '3*t1^0 - 1'",
        "x1 - u0*t2": "bad polynomial text at '- u0*t2'",
        " \t": "empty polynomial text",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as err:
            Polynomial.parse(text)
        assert str(err.value) == message


# The alphabet of the differential test: variables with good and bad
# indices, integers, the four operators, exponents at both ends, a foreign
# symbol, whitespace, and the Arabic-Indic digits three and zero, which \d
# and int() accept.
_TEXT_PIECES = (
    "t1", "t2", "t0", "t01", "t33", "x32", "u3", "y1", "t", "0", "1", "7", "12", "007",
    "+", "-", "*", "^", "^0", "^2", "^65535", "$", " ", "\t", "\n", "\u0663", "\u0660",
)


def test_parse_matches_token_reader():
    """The term reader and the token reader accept the same texts with the
    same values; each refuses the rest with a domain error, though not
    always the same one when a text has two faults."""
    rng = random.Random(7)
    accepted = 0
    for _ in range(20_000):
        text = "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 10)))
        try:
            expected = parse_by_tokens(text)
        except EqschubError:
            expected = None
        if expected is None:
            with pytest.raises(EqschubError):
                Polynomial.parse(text)
        else:
            assert Polynomial.parse(text) == expected, text
            accepted += 1
    assert accepted > 1000


# ------------------------------------------------------------ monomial limits

def test_variable_index_limit():
    assert str(Polynomial.variable("y", MAX_INDEX)) == "y32"
    with pytest.raises(MonomialOverflow):
        Polynomial.variable("t", MAX_INDEX + 1)
    with pytest.raises(MonomialOverflow):
        t(33)
    with pytest.raises(MonomialOverflow):
        t(33) - t(1)


def test_parse_limits():
    assert str(Polynomial.parse("t1^65535*x32")) == "t1^65535*x32"
    for text in ("t1^65536", "t33", "u40^2", "t1^40000*t1^30000"):
        with pytest.raises(MonomialOverflow):
            Polynomial.parse(text)


def test_exponent_limit_in_products_and_powers():
    top = t(1) ** MAX_EXPONENT
    assert str(top * t(2)) == "t1^65535*t2"  # nothing carries into t2
    with pytest.raises(MonomialOverflow):
        top * t(1)
    with pytest.raises(MonomialOverflow):
        t(1) ** (MAX_EXPONENT + 1)
    with pytest.raises(MonomialOverflow):
        (t(1) ** 40000 + t(2)) * (t(3) + t(1) ** 30000)
    with pytest.raises(MonomialOverflow):
        (t(32) + y(1)) ** 2 * (y(1) ** MAX_EXPONENT + 1)
    with pytest.raises(MonomialOverflow):
        (t(32) + y(1)) ** 70000  # refused up front, not after 2^14 squarings
    assert (t(2) ** 2 + 1) ** 0 == 1


def test_exponent_limit_in_division():
    # t2^40000 * t1^30000 has t2 -> t1 remainder t1^70000.
    with pytest.raises(MonomialOverflow):
        (t(2) ** 40000 * t(1) ** 30000).divide_with_remainder(t(2) - t(1))
    with pytest.raises(MonomialOverflow):
        (t(2) * t(1) ** MAX_EXPONENT).divide_with_remainder(t(2) - t(1))
    q, r = (t(2) * t(1) ** (MAX_EXPONENT - 1)).divide_with_remainder(t(2) - t(1))
    assert (q, r) == (t(1) ** (MAX_EXPONENT - 1), t(1) ** MAX_EXPONENT)
    # At the diagonal the merged exponent may pass the limit.
    a = t(1) ** 40000 * t(2) ** 40000
    assert _agree_at_diagonal(a, t(1) ** 50000 * t(2) ** 30000, 1, 2)
    assert not _agree_at_diagonal(a, t(1) ** 50000 * t(2) ** 30001, 1, 2)
    # 80000 = 2^16 + 14464: carried into t3's field it would equal t2^14464*t3.
    assert not _agree_at_diagonal(a, t(2) ** 14464 * t(3), 1, 2)


# ------------------------------------------------- packed layout vs tuples

_EXPONENTS = st.one_of(
    st.integers(1, 3),
    st.integers(2 ** 15 - 2, 2 ** 15 + 1),  # around the guard bit
    st.integers(MAX_EXPONENT - 2, MAX_EXPONENT),
)
_INDICES = st.one_of(st.sampled_from((1, 2, 31, 32)), st.integers(1, MAX_INDEX))
_VARIABLES = st.tuples(st.sampled_from(range(len(FAMILIES))), _INDICES)


@st.composite
def tuple_polys(draw, max_terms=4, coeffs=st.integers(-9, 9), variables=_VARIABLES):
    """A polynomial in the tuple layout, over all four families unless
    `variables` draws from fewer."""
    terms: dict = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = {draw(variables): draw(_EXPONENTS) for _ in range(draw(st.integers(0, 3)))}
        key = tuple(sorted(mono.items(), reverse=True))
        terms = tuple_add(terms, {key: draw(coeffs)})
    return terms


# Constants come from monomials with no variable; +-1 is written without a
# coefficient except on a constant.
_RENDER_COEFFS = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                           st.integers(-10 ** 40, 10 ** 40))


def _packed(a: dict) -> Polynomial:
    return Polynomial.parse(tuple_str(a))


@given(tuple_polys(), tuple_polys())
@settings(max_examples=150, deadline=None)
def test_packed_ring_ops_match_tuple_oracle(a, b):
    pa, pb = _packed(a), _packed(b)
    assert tuple_terms(pa) == a
    assert str(pa) == tuple_str(a)
    assert Polynomial.parse(str(pa)) == pa
    assert pa.variables() == {(FAMILIES[rank], idx) for m in a for (rank, idx), _ in m}
    assert pa.degree() == max((sum(e for _, e in m) for m in a), default=float("-inf"))
    # Plain int order is the tuple order, which positivity witnesses follow.
    assert [next(iter(tuple_terms(Polynomial({m: 1})))) for m, _ in sorted(pa.items())] == sorted(a)
    assert tuple_terms(pa + pb) == tuple_add(a, b)
    difference = tuple_add(a, {m: -c for m, c in b.items()})
    assert tuple_terms(pa - pb) == difference
    assert str(pa - pb) == tuple_str(difference)
    assert tuple_terms(3 - pa) == tuple_add({(): 3}, {m: -c for m, c in a.items()})
    product = tuple_mul(a, b)
    if tuple_max_exponent(product) > MAX_EXPONENT:
        with pytest.raises(MonomialOverflow):
            pa * pb
    else:
        assert tuple_terms(pa * pb) == product
        assert str(pa * pb) == tuple_str(product)


@given(st.lists(tuple_polys(max_terms=6, coeffs=_RENDER_COEFFS), max_size=4))
@settings(max_examples=150, deadline=None)
def test_render_matches_tuple_oracle(polys):
    # str alone, and several polynomials rendered with one shared dict of
    # factor texts, as a class renders its restrictions.
    packed = [_packed(a) for a in polys]
    assert [str(p) for p in packed] == [tuple_str(a) for a in polys]
    bodies: dict = {}
    assert [_render(p, bodies) for p in packed] == [tuple_str(a) for a in polys]


@pytest.mark.parametrize("text, canonical", [
    ("t2 + t1^65535*t3 + t1^40000*t2^40000", "t1^40000*t2^40000 + t1^65535*t3 + t2"),
    ("t2 + t1^65535", "t1^65535 + t2"),
    ("t3^2 - 2*t1^65534*t2 + 5", "-2*t1^65534*t2 + t3^2 + 5"),
    ("x1^65535*y32^65535 - u7 + t1^65535", "x1^65535*y32^65535 + t1^65535 - u7"),
    ("t1 + 1 - t1^2*t2^65534", "-t1^2*t2^65534 + t1 + 1"),
    ("t1 - t1^65535 + 3", "-t1^65535 + t1 + 3"),  # the bound is exactly 65535
])
def test_render_orders_total_degrees_from_65535_up(text, canonical):
    # m % 65535 is the total degree of m only below 65535, so where some
    # degree reaches it the renderer sorts by the exact degree.
    p = Polynomial.parse(text)
    assert str(p) == canonical == tuple_str(tuple_terms(p))
    assert _render(p, {}) == canonical


def _tuple_top_degree(a: dict, dim: int) -> int | None:
    """The degree-dim part of a tuple-layout polynomial in t at t_i = i, one
    term at a time; None when some term has degree above dim."""
    degrees = {m: sum(e for _, e in m) for m in a}
    if any(degree > dim for degree in degrees.values()):
        return None
    return sum(c * prod(idx ** e for (_, idx), e in m) for m, c in a.items() if degrees[m] == dim)


@given(st.lists(tuple_polys(max_terms=6, variables=st.tuples(st.just(0), _INDICES)),
                min_size=1, max_size=4), st.data())
@settings(max_examples=150, deadline=None)
def test_top_degree_value_matches_tuple_oracle(polys, data):
    # Several polynomials share one dict of monomial values, as a class's
    # restrictions do; dim is a total degree some term has, or one off it.
    degrees = sorted({sum(e for _, e in m) for a in polys for m in a}) or [0]
    dim = max(0, data.draw(st.sampled_from(degrees)) + data.draw(st.sampled_from((-1, 0, 0, 1))))
    values: dict = {}
    got = [_top_degree_value(_packed(a), dim, values) for a in polys]
    assert got == [_tuple_top_degree(a, dim) for a in polys]


_DEGREE_CASES = pytest.mark.parametrize("text, dim, value", [
    ("t1^65535 + t2", 65535, 1),
    ("t1^65535 + t2", 1, None),
    ("t2^65535 - 3*t1 + 4", 65535, 2 ** 65535),
    ("t1^65535*t2 + t3", 65535, None),
    ("t1^65535*t2 + t3", 65536, 2),
    ("t1^32767*t2^32768 + 5*t3", 65535, 2 ** 32768),  # fields summing to 65535
    ("t1^40000*t2^40000 + t3^2", 2, None),
    ("t1 - t1^65534*t2 + 3", 65535, -2),
], ids=lambda v: str(v) if not isinstance(v, int) or v.bit_length() < 64 else f"{v.bit_length()}-bit")


@_DEGREE_CASES
def test_top_degree_value_reads_total_degrees_from_65535_up(text, dim, value):
    # m % 65535 is the total degree of m only below 65535, so where some
    # degree reaches it the degrees are summed field by field.
    p = Polynomial.parse(text)
    assert _top_degree_value(p, dim, {}) == value == _tuple_top_degree(tuple_terms(p), dim)


@_DEGREE_CASES
def test_degree_readers_read_total_degrees_from_65535_up(text, dim, value):
    # degree, is_homogeneous and homogeneous_component read total degrees as
    # _top_degree_value does, against the per-term sums of the tuple layout.
    p = Polynomial.parse(text)
    degrees = {m: sum(e for _, e in m) for m in tuple_terms(p)}
    assert p.degree() == max(degrees.values())
    assert p.is_homogeneous() == (len(set(degrees.values())) == 1)
    component = {m: c for m, c in tuple_terms(p).items() if degrees[m] == dim}
    assert tuple_terms(p.homogeneous_component(dim)) == component


# Scales of the accumulation loop: +-1, as sums and differences use, and 40
# digits, as products with large coefficients do.
_SCALES = st.one_of(st.sampled_from((1, -1)), st.integers(10 ** 39, 10 ** 40),
                    st.integers(-10 ** 40, -10 ** 39))


@given(tuple_polys(coeffs=_RENDER_COEFFS), tuple_polys(coeffs=_RENDER_COEFFS),
       st.dictionaries(_VARIABLES, st.integers(1, 3), max_size=3), _SCALES,
       st.sampled_from(("apart", "some", "all")))
@settings(max_examples=150, deadline=None)
def test_merge_matches_tuple_oracle(a, b, shift, scale, cancel):
    # target + scale * shift * b in the tuple layout, where target is a, or a
    # less some terms of scale * shift * b, or exactly less all of them, so
    # that the sum cancels to empty.
    shift = {tuple(sorted(shift.items(), reverse=True)): 1}
    scaled = {m: scale * c for m, c in tuple_mul(shift, b).items()}
    assume(tuple_max_exponent(scaled) <= MAX_EXPONENT)
    if cancel == "all":
        a = {m: -c for m, c in scaled.items()}
    elif cancel == "some":
        a = tuple_add(a, {m: -c for m, c in list(scaled.items())[::2]})
    target = dict(_packed(a).items())
    _merge(target, dict(_packed(b).items()), next(iter(_packed(shift).items()))[0], scale)
    expected = tuple_add(a, scaled)
    assert tuple_terms(Polynomial._make(target)) == expected
    assert all(target.values())


@given(tuple_polys(), st.data())
@settings(max_examples=100, deadline=None)
def test_packed_substitute_matches_tuple_oracle(a, data):
    """Each variable goes to +-c * v^k for another variable v, so exponents
    near the limit stay cheap; the result overflows when a term's image does."""
    images = {}
    for mono in a:
        for var, _ in mono:
            if var not in images:
                target = data.draw(_VARIABLES)
                images[var] = {((target, data.draw(st.integers(1, 2))),): data.draw(st.sampled_from((1, -1, 2)))}
    mapping = {(FAMILIES[rank], idx): _packed(image) for (rank, idx), image in images.items()}
    parts = tuple_substitute_parts(a, images)
    if any(tuple_max_exponent(part) > MAX_EXPONENT for part in parts):
        with pytest.raises(MonomialOverflow):
            _packed(a).substitute(mapping)
    else:
        total: dict = {}
        for part in parts:
            total = tuple_add(total, part)
        assert tuple_terms(_packed(a).substitute(mapping)) == total


@given(tuple_polys(max_terms=5), st.tuples(_INDICES, _INDICES), st.sampled_from((1, -1)))
@settings(max_examples=150, deadline=None)
def test_packed_division_matches_tuple_oracle(f, pair, sign):
    """t_a keeps exponents of at most 3, since the quotient of t_a^e has e
    terms; t_b and every other variable range up to the limit."""
    b, a = sorted(pair)
    if a == b:
        a, b = (b + 1, b) if b < MAX_INDEX else (b, b - 1)
    ta = tuple_variable("t", a)
    f = {tuple((v, min(e, 3) if v == ta else e) for v, e in m): c for m, c in f.items()}
    q, r = tuple_divide(f, a, b, sign)
    divisor = sign * (t(a) - t(b))
    if max(tuple_max_exponent(q), tuple_max_exponent(r)) > MAX_EXPONENT:
        with pytest.raises(MonomialOverflow):
            _packed(f).divide_with_remainder(divisor)
    else:
        pq, pr = _packed(f).divide_with_remainder(divisor)
        assert (tuple_terms(pq), tuple_terms(pr)) == (q, r)


@given(tuple_polys(), st.tuples(_INDICES, _INDICES), st.data())
@settings(max_examples=150, deadline=None)
def test_packed_agree_at_diagonal_matches_tuple_oracle(a, pair, data):
    """b is a with the t_i and t_j exponents of each term split anew, which
    agrees with a at t_i = t_j, plus at times one more random polynomial."""
    i, j = sorted(pair)
    if i == j:
        i, j = (j - 1, j) if j > 1 else (i, i + 1)
    ti, tj = tuple_variable("t", i), tuple_variable("t", j)
    b: dict = {}
    for mono, coeff in a.items():
        ei = sum(e for v, e in mono if v == ti)
        ej = sum(e for v, e in mono if v == tj)
        ni = data.draw(st.integers(max(0, ei + ej - MAX_EXPONENT), min(ei + ej, MAX_EXPONENT)))
        split = {v: e for v, e in mono if v not in (ti, tj)}
        split.update({v: e for v, e in ((ti, ni), (tj, ei + ej - ni)) if e})
        b = tuple_add(b, {tuple(sorted(split.items(), reverse=True)): coeff})
    if data.draw(st.booleans()):
        b = tuple_add(b, data.draw(tuple_polys(max_terms=2)))
    else:
        assert tuple_agree_at_diagonal(a, b, i, j)
    assert _agree_at_diagonal(_packed(a), _packed(b), i, j) == tuple_agree_at_diagonal(a, b, i, j)


# ----------------------------------------------------------------- properties

VARS = (("t", 1), ("t", 2), ("t", 3))


@st.composite
def polys(draw, max_terms=4, max_exp=3, max_coeff=9):
    total = Polynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = Polynomial.integer(draw(st.integers(-max_coeff, max_coeff)))
        for fam, idx in VARS:
            e = draw(st.integers(0, max_exp))
            if e:
                term = term * Polynomial.variable(fam, idx) ** e
        total = total + term
    return total


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_add_sub_round_trip(a, b):
    assert (a + b) - b == a


@st.composite
def weights(draw):
    """(w, a) with w = +-(t_a - t_b), a > b, on t1..t3."""
    b, a = draw(st.sampled_from(((1, 2), (1, 3), (2, 3))))
    w = t(a) - t(b)
    return (w if draw(st.booleans()) else -w), a


@given(polys(), weights())
@settings(max_examples=60, deadline=None)
def test_multiply_divide_round_trip(a, weight):
    w, _ = weight
    assert (a * w).exact_divide(w) == a


@given(polys(max_terms=6), weights())
@settings(max_examples=80, deadline=None)
def test_division_certificate(f, weight):
    w, a = weight
    q, r = f.divide_with_remainder(w)
    assert q * w + r == f
    assert ("t", a) not in r.variables()
    assert (f * w).divide_with_remainder(w) == (f, 0)


@st.composite
def linear_forms(draw):
    """(form, a): a linear form in t1..t5 whose coefficient at t_a is +-1, the
    others drawn from -3..3."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    a = draw(st.integers(1, 5))
    coeffs[a - 1] = draw(st.sampled_from((1, -1)))
    return sum((c * t(i) for i, c in enumerate(coeffs, 1)), Polynomial.zero()), a


def _divide_by_form(p, form):
    """Exact division by a linear form, as structure_constants divides."""
    q, r = _divide(p, form)
    if r:
        raise NotDivisible(r, q)
    return q


@given(polys(max_terms=6), linear_forms())
@settings(max_examples=80, deadline=None)
def test_divide_by_form_round_trip(f, form):
    form, _ = form
    assert _divide_by_form(f * form, form) == f


@given(polys(max_terms=6), linear_forms(), polys(max_terms=3))
@settings(max_examples=80, deadline=None)
def test_divide_by_form_refuses_a_non_multiple(f, form, extra):
    # A nonzero r free of some t_a with coefficient +-1 in the form is no
    # multiple of it, so f * form + r is refused; the quotient and the
    # nonzero remainder it carries still make up the dividend.
    form, a = form
    r = extra.substitute({("t", i): 0 if i == a else t(i) for i in (1, 2, 3)}) or Polynomial.one()
    with pytest.raises(NotDivisible) as info:
        _divide_by_form(f * form + r, form)
    assert info.value.remainder
    assert info.value.quotient * form + info.value.remainder == f * form + r


def test_divide_by_form_examples():
    form = t(1) + t(4) - t(2) - t(5)
    f = (t(1) ** 2 - 3 * t(4) * t(2) + 7) * (t(6) - t(2)) ** 2
    assert _divide_by_form(f * form, form) == f
    assert _divide_by_form(f * -form, -form) == f
    assert _divide_by_form(Polynomial.zero(), form) == 0
    # t1 + t2 is a linear form with unit coefficients, which divide_with_remainder refuses.
    assert _divide_by_form(t(1) ** 2 - t(2) ** 2, t(1) + t(2)) == t(1) - t(2)
    with pytest.raises(NotDivisible):
        _divide_by_form(t(1) ** 2 + t(2) ** 2, t(1) + t(2))
    with pytest.raises(NotDivisible):
        _divide_by_form(Polynomial.integer(3), form)


def test_divide_by_form_refuses_other_divisors():
    for divisor in (Polynomial.one(), t(1) * t(2), t(1) + 1, 2 * t(1) - 2 * t(2), x(1) - t(1)):
        with pytest.raises(ValueError, match="linear form"):
            _divide_by_form(t(1) ** 2, divisor)
    with pytest.raises(ZeroDivisionError):
        _divide_by_form(t(1), Polynomial.zero())


def test_divide_by_form_near_the_exponent_bound():
    form = t(2) - t(1) + t(3)
    big = t(2) ** 40000 * t(1) ** 20000
    assert _divide_by_form(big * form, form) == big
    with pytest.raises(MonomialOverflow):
        _divide_by_form(t(2) ** 40000 * t(1) ** 30000, form)


@given(polys(max_terms=6), linear_forms())
@settings(max_examples=80, deadline=None)
def test_divide_matches_sympy_division(f, form):
    # Mostly no multiple of the form: the remainder is free of the lead
    # variable, the largest t_a with coefficient +-1, as sympy leaves it.
    import sympy

    form, _ = form
    coeffs = {i: form.substitute({("t", j): int(j == i) for j in range(1, 6)}).constant_term()
              for i in range(1, 6)}
    a = max(i for i, c in coeffs.items() if c in (1, -1))
    q, r = _divide(f, form)
    assert ("t", a) not in r.variables()
    oracle_q, oracle_r = divide_by_sympy(f, form, a)
    assert sympy.expand(poly_to_sympy(q) - oracle_q) == 0
    assert sympy.expand(poly_to_sympy(r) - oracle_r) == 0


def test_divide_one_other_variable_near_the_exponent_bound():
    # A form s*t_a + c*t_b widens t_b's field as a weight does: the exact
    # result decides, not the dividend's degree.
    for form, c in ((t(2) - 3 * t(1), 3), (t(1) + t(2), -1)):
        assert _divide(t(2) * t(1) ** (MAX_EXPONENT - 1), form) == (
            t(1) ** (MAX_EXPONENT - 1), c * t(1) ** MAX_EXPONENT)
        big = t(1) ** 40000 * t(3) ** 30000  # degree above MAX_EXPONENT
        assert _divide(t(2) ** 2 * big, form) == ((t(2) + c * t(1)) * big, c ** 2 * t(1) ** 2 * big)
        assert _divide(big * form, form) == (big, 0)
        for p in (t(2) * t(1) ** MAX_EXPONENT, t(2) ** 40000 * t(1) ** 30000):
            with pytest.raises(MonomialOverflow):
                _divide(p, form)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_ring_homomorphism(a, b):
    mapping = {
        ("t", 1): t(2) + 1,
        ("t", 2): t(1) * t(2) - 2,
        ("t", 3): -t(3),
    }
    left = (a * b).substitute(mapping)
    right = a.substitute(mapping) * b.substitute(mapping)
    assert left == right


_FORM_POOL = [t(2) - t(1), t(3) - t(1), t(1) - t(3), t(3) - t(2)]


def _ratf_value(pieces):
    try:
        return ratf_sum(pieces)
    except NotDivisible:
        return NotDivisible


@given(
    st.lists(
        st.tuples(polys(max_terms=2, max_exp=2), st.lists(st.sampled_from(range(4)), max_size=3),
                  st.booleans()),
        max_size=4,
    ),
    st.randoms(),
)
@settings(max_examples=40, deadline=None)
def test_ratf_sum_order_independent(specs, rng):
    # A piece drawn whole has a numerator that is a multiple of its
    # denominator, so it adds exactly the multiplier.
    pieces, whole_sum = [], Polynomial.zero()
    for num, idxs, whole in specs:
        forms = [_FORM_POOL[i] for i in idxs]
        if whole:
            whole_sum = whole_sum + num
            for form in forms:
                num = num * form
        pieces.append((num, forms))
    shuffled = list(pieces)
    rng.shuffle(shuffled)
    value = _ratf_value(pieces)
    assert _ratf_value(shuffled) == value
    if all(whole for _, _, whole in specs):
        assert value == whole_sum
