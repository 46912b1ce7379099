from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann.exact import (
    DimensionMismatch,
    GramMatrix,
    PoleError,
    RationalAngle,
    RealInterval,
    SingularGram,
    cot_eval,
    dual_basis,
    format_interval,
    format_rational,
    inner,
    matrix_rank,
    parse_rational,
    primitive_direction,
    row_reduce,
    solve_exact,
    zero_interval,
)

HALF = Fraction(1, 2)

angles = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                      max_denominator=64)
small_fractions = st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                               max_denominator=100)


def test_rational_angle_str_and_arithmetic():
    a = RationalAngle(Fraction(1, 4))
    assert str(a) == "1/4*pi"
    assert str(-a) == "-1/4*pi"
    assert (a + RationalAngle(HALF)).coeff == Fraction(3, 4)


def test_parse_rational():
    assert parse_rational("3/8") == Fraction(3, 8)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(ValueError):
        parse_rational("1.5x")


def test_format_rational_round_trip():
    for f in (Fraction(0), Fraction(-3, 7), Fraction(5)):
        assert parse_rational(format_rational(f)) == f


def test_cot_quarter_pi_is_one():
    iv = cot_eval(RationalAngle(Fraction(1, 4)))
    assert iv.contains(Fraction(1))
    assert iv.width <= Fraction(1, 2 ** 184)


def test_cot_known_signs():
    assert cot_eval(RationalAngle(Fraction(1, 6))).certainly_positive
    assert (-cot_eval(RationalAngle(Fraction(2, 3)))).certainly_positive
    assert cot_eval(RationalAngle(HALF)).contains_zero


def test_cot_pole():
    with pytest.raises(PoleError):
        cot_eval(RationalAngle(Fraction(2)))


def test_cot_period_one():
    a = cot_eval(RationalAngle(Fraction(1, 5)))
    b = cot_eval(RationalAngle(Fraction(6, 5)))
    assert a.lo == b.lo and a.hi == b.hi


@given(angles)
@settings(max_examples=60, deadline=None)
def test_cot_reflection_identity(coeff):
    # cot(pi - x) = -cot(x): the sum of the two enclosures must cover 0
    if coeff % 1 == 0 or (coeff + HALF) % 1 == 0:
        return
    total = cot_eval(RationalAngle(coeff)) + cot_eval(RationalAngle(1 - coeff))
    assert total.contains_zero


@given(small_fractions, small_fractions)
@settings(max_examples=60, deadline=None)
def test_interval_product_contains_exact_product(x, y):
    a = RealInterval(x, x, 192)
    b = RealInterval(y, y, 192)
    assert (a * b).contains(x * y)


def test_interval_operations():
    a = RealInterval(Fraction(1, 3), Fraction(1, 2), 192)
    assert a.certainly_positive and a.certainly_nonzero
    assert (-a).hi == Fraction(-1, 3)
    assert a.scale(Fraction(-2)).lo == Fraction(-1)
    s = a + RealInterval(Fraction(-1), Fraction(-1), 192)
    assert s.contains_zero is False and s.hi < 0
    assert zero_interval(64).width == 0


def test_gram_matrix_rejects_non_positive_definite():
    with pytest.raises(SingularGram):
        GramMatrix(((1, 2), (2, 1)))
    with pytest.raises(SingularGram):
        GramMatrix(((0, 0), (0, 1)))
    with pytest.raises(SingularGram):
        GramMatrix(((1, 2), (3, 4)))


def test_inner_g2_off_diagonal():
    g = GramMatrix(((2, -3), (-3, 6)))
    assert inner((1, 0), (0, 1), g) == -3
    assert inner((2, 1), (0, 1), g) == 0
    with pytest.raises(DimensionMismatch):
        inner((1,), (0, 1), g)


def test_dual_basis_bc3():
    g = GramMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 1)))
    duals = dual_basis(g)
    expect = ((1, 1, 1), (1, 2, 2), (1, 2, 3))
    assert tuple(tuple(x for x in row) for row in duals) == expect


def test_dual_basis_g2():
    g = GramMatrix(((2, -3), (-3, 6)))
    duals = dual_basis(g)
    assert duals == ((2, 1), (1, Fraction(2, 3)))


def test_solve_exact_and_rank():
    sol = solve_exact([[2, 1], [1, 1]], [3, 2])
    assert sol == (1, 1)
    assert solve_exact([[1, 1], [2, 2]], [1, 2]) is None
    assert matrix_rank([(1, 0, 1), (0, 1, 1), (1, 1, 2)]) == 2
    assert matrix_rank([]) == 0
    # rectangular: four dependent rows in the plane x = 2y
    assert matrix_rank([(2, 1), (4, 2), (-2, -1), (0, 0)]) == 1
    assert matrix_rank([(1, 2, 3, 4), (2, 4, 6, 9)]) == 2
    # consistent coefficients, contradictory right-hand side
    assert solve_exact([[1, 2], [2, 4]], [1, 3]) is None
    rref, pivots = row_reduce([(0, 2, 4, 2), (0, 1, 2, 3), (1, 0, 1, 0)])
    assert pivots == (0, 1, 3)
    assert rref == [[1, 0, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert all(isinstance(x, Fraction) for row in rref for x in row)


def test_primitive_direction():
    assert primitive_direction((2, 4)) == ((1, 2), 2)
    assert primitive_direction((0, -3)) == ((0, 1), -3)


def test_format_interval_annotations():
    assert format_interval(zero_interval(192)) == "0@192b"
    pos = RealInterval(Fraction(2), Fraction(2), 192)
    assert format_interval(pos).startswith("2.0")
    assert format_interval(pos).endswith("@192b")
    near = RealInterval(Fraction(-1, 10 ** 40), Fraction(1, 10 ** 40), 192)
    assert format_interval(near).startswith("<=")
