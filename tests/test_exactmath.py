"""Unit tests for the exact arithmetic layer: q-series on the 1/24 exponent
grid."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charmod
from charmod import charring, exactmath
from charmod.charring import PolyRing, default_ring
from charmod.exactmath import (
    GRID,
    GridError,
    NotExponentiable,
    NotInvertible,
    QExpSeries,
    RAT_RING,
    _exp_nilpotent,
    qs_exp,
    qs_inv,
    qs_log,
    qs_mul,
)


def series(coeffs, order=None):
    if order is None:
        order = len(coeffs) - 1
    return QExpSeries.from_q_coeffs(RAT_RING, order, [Fraction(c) for c in coeffs])


# ----------------------------------------------------------------------
# q-series structure
# ----------------------------------------------------------------------


def test_negative_orders_and_caps_raise_the_one_argument_error():
    # the owners of the order and the cap reject negatives themselves, so
    # the command line maps both to a usage error without checks of its own
    assert charring.ArgumentError is exactmath.ArgumentError is charmod.ArgumentError
    with pytest.raises(exactmath.ArgumentError, match="^the series order must be at least 0, got -1$"):
        QExpSeries(RAT_RING, -1)
    with pytest.raises(exactmath.ArgumentError, match="^the degree cap must be at least 0, got -1$"):
        PolyRing({"u": 4}, cap=-1)
    assert QExpSeries(RAT_RING, 0).order == 0 and PolyRing({"u": 4}, cap=0).cap == 0


def test_from_q_coeffs_and_coefficient():
    s = series([1, 2, 3])
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 2
    assert s.coefficient(Fraction(2)) == 3
    assert s.coefficient(Fraction(1, 24)) == 0
    assert s.as_q_coeffs() == [1, 2, 3]


def test_monomial_on_fractional_grid():
    s = QExpSeries(RAT_RING, 2, {12: Fraction(1)})  # q^(1/2)
    assert s.coefficient(Fraction(1, 2)) == 1
    assert not s.has_whole_support()
    with pytest.raises(GridError):
        s.as_q_coeffs()


def test_negative_grid_exponent_rejected():
    with pytest.raises(GridError):
        QExpSeries(RAT_RING, 2, {-1: Fraction(1)})


def test_truncation_drops_high_terms():
    s = series([1, 1, 1, 1, 1])
    t = s.truncate(2)
    assert t.order == 2
    assert t.coefficient(3) == 0


def test_mul_matches_cauchy_product():
    a = series([1, 2, 0, 5])
    b = series([3, 0, 1, 7])
    prod = qs_mul(a, b)
    # (1 + 2q + 5q^3)(3 + q^2 + 7q^3) up to q^3
    assert prod.as_q_coeffs() == [3, 6, 1, 24]


def test_mul_mixed_grid_support():
    half = QExpSeries(RAT_RING, 2, {12: Fraction(1)})
    assert qs_mul(half, half).coefficient(1) == 1


@pytest.mark.parametrize("exponent, products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)])
def test_power_makes_no_product_by_one(monkeypatch, exponent, products):
    # square-and-multiply from the base at the lowest set bit of the exponent
    s = series([1, 2, -1, 3], order=6)
    expected = QExpSeries.one(RAT_RING, 6)
    for _ in range(exponent):
        expected = qs_mul(expected, s)
    calls = []

    def counting_mul(a, b):
        calls.append((a, b))
        return qs_mul(a, b)

    monkeypatch.setattr(exactmath, "qs_mul", counting_mul)
    assert s ** exponent == expected
    assert len(calls) == products


def test_inverse_of_phi_like_unit():
    s = series([1, -1, -1, 0, 0, 1, 0])
    inv = qs_inv(s)
    assert qs_mul(s, inv) == QExpSeries.one(RAT_RING, 6)


def test_inverse_requires_constant_term():
    with pytest.raises(NotInvertible):
        qs_inv(series([0, 1, 2]))


def test_inverse_requires_whole_support():
    half = QExpSeries(RAT_RING, 2, {0: Fraction(1), 12: Fraction(1)})
    with pytest.raises(GridError):
        qs_inv(half)


def test_exp_log_round_trip():
    s = series([0, 1, -2, 3, 1])
    assert qs_log(qs_exp(s)) == s
    u = series([1, 4, -1, 2])
    assert qs_exp(qs_log(u)) == u


def test_exp_rejects_nonzero_constant():
    with pytest.raises(NotExponentiable):
        qs_exp(series([1, 1]))


def test_exp_nilpotent_rejects_a_constant_term_at_once():
    started = time.perf_counter()
    with pytest.raises(NotExponentiable):
        _exp_nilpotent(default_ring().one())
    assert time.perf_counter() - started < 1.0


def test_log_rejects_non_unit_head():
    with pytest.raises(NotExponentiable):
        qs_log(series([0, 1]))


def test_q_shift():
    s = series([1, 2], order=3).q_shift(24)
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == 1
    assert s.coefficient(2) == 2


# ----------------------------------------------------------------------
# algebraic laws on random series (small, rational)
# ----------------------------------------------------------------------

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def rational_series(draw, min_constant=None):
    coeffs = draw(st.lists(rationals, min_size=4, max_size=4))
    if min_constant is not None:
        coeffs[0] = min_constant
    return series(coeffs)


@given(a=rational_series(), b=rational_series(), c=rational_series())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert qs_mul(a, b) == qs_mul(b, a)
    assert qs_mul(a, b + c) == qs_mul(a, b) + qs_mul(a, c)
    assert qs_mul(qs_mul(a, b), c) == qs_mul(a, qs_mul(b, c))


@given(a=rational_series(min_constant=Fraction(0)), b=rational_series(min_constant=Fraction(0)))
@settings(max_examples=40, deadline=None)
def test_exp_is_homomorphism(a, b):
    assert qs_exp(a + b) == qs_mul(qs_exp(a), qs_exp(b))


@given(a=rational_series(min_constant=Fraction(1)))
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(a):
    assert qs_mul(a, qs_inv(a)) == QExpSeries.one(RAT_RING, a.order)
