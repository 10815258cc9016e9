"""The exact arithmetic kernels against the plain algorithms they replaced.

Each oracle is the textbook route: exp as the sum of the powers of the tail
series, a graded-polynomial product as a dict of Fraction products, and a
series power as repeated multiplication.  Every comparison has a negative
control: the oracle's result with one coefficient shifted must not compare
equal to the kernel's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmod.charring import GradedPoly, PolyRing
from charmod.exactmath import GRID, QExpSeries, RAT_RING, qs_exp, qs_mul

POLY_RING = PolyRing({"u": 2, "v": 4}, cap=8)


def shifted(series):
    """``series`` with ring.one() added to its highest nonzero coefficient."""
    terms = dict(series.terms)
    k = max(terms, default=0)
    terms[k] = terms.get(k, series.ring.zero()) + series.ring.one()
    return QExpSeries(series.ring, series.order, terms)


# ----------------------------------------------------------------------
# qs_exp against the power sum of the tail
# ----------------------------------------------------------------------


def power_sum_exp(a):
    """exp(a) = exp(a_0) * sum_j t^j / j! with t the positive-exponent tail."""
    ring = a.ring
    one = QExpSeries.one(ring, a.order)
    tail = QExpSeries(ring, a.order, {k: c for k, c in a.terms.items() if k != 0})
    acc, power, j = one, one, 1
    while True:
        power = qs_mul(power, tail).scale(Fraction(1, j))
        if power.is_zero():
            break
        acc = acc + power
        j += 1
    s0 = a.terms.get(0)
    if s0 is None:
        return acc
    head, term, j = ring.one(), ring.one(), 1
    while True:
        term = term * s0 * Fraction(1, j)
        if term.is_zero():
            return acc.scale(head)
        head = head + term
        j += 1


def rational_exponent(order):
    # q^(1/3), q^(1/2), q, q^(3/2) and q^3
    return QExpSeries(
        RAT_RING,
        order,
        {8: Fraction(2, 3), 12: Fraction(1, 2), 24: Fraction(-3), 36: Fraction(5, 7), 72: Fraction(1)},
    )


def poly_exponent(order):
    # nilpotent q^0 term plus half-step support
    g = POLY_RING.gens()
    u, v = g["u"], g["v"]
    return QExpSeries(
        POLY_RING,
        order,
        {0: u - v * Fraction(1, 3), 12: v - Fraction(1, 2), 24: 3 * u * u + 2, 48: v * Fraction(-1, 5)},
    )


@pytest.mark.parametrize("order", [0, 1, 7, 24])
@pytest.mark.parametrize("make", [rational_exponent, poly_exponent], ids=["rational", "poly"])
def test_exp_matches_power_sum(make, order):
    a = make(order)
    expected = power_sum_exp(a)
    got = qs_exp(a)
    assert got == expected
    assert got != shifted(expected)


def test_exp_power_sum_sees_the_nilpotent_head():
    a = poly_exponent(2)
    without_head = QExpSeries(POLY_RING, 2, {k: c for k, c in a.terms.items() if k != 0})
    assert qs_exp(a) != power_sum_exp(without_head)


# ----------------------------------------------------------------------
# GradedPoly multiplication against a dict of Fraction products
# ----------------------------------------------------------------------

MUL_RING = PolyRing({"a": 2, "b": 4, "c": 6}, cap=12)


def naive_product(p, q):
    ring = p.ring
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(x * ring.degrees[n] for n, x in zip(ring.names, e)) <= ring.cap:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return GradedPoly(ring, out)


coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=60)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exponents, coefficients, max_size=12).map(
    lambda coeffs: GradedPoly(MUL_RING, coeffs)
)


@given(p=polys, q=polys)
@settings(max_examples=150, deadline=None)
def test_poly_mul_matches_fraction_products(p, q):
    expected = naive_product(p, q)
    got = p * q
    assert got == expected
    bumped = dict(expected.coeffs)
    key = next(iter(bumped), (0, 0, 0))
    bumped[key] = bumped.get(key, Fraction(0)) + 1
    assert got != GradedPoly(MUL_RING, bumped)


def test_poly_mul_mixed_denominators_across_the_cap():
    g = MUL_RING.gens()
    a, b, c = g["a"], g["b"], g["c"]
    p = a * Fraction(1, 6) - b * Fraction(3, 10) + c * Fraction(-5, 14) + Fraction(7, 9)
    q = a * a * Fraction(-2, 15) + b * c * Fraction(1, 4) + a * Fraction(11, 21)
    expected = naive_product(p, q)
    assert p * q == expected
    assert (b * c * c).is_zero()  # degree 16 is past the cap
    assert p * q != expected + a * Fraction(1, 1000)


# ----------------------------------------------------------------------
# QExpSeries.__pow__ against repeated multiplication
# ----------------------------------------------------------------------


def repeated_power(series, exponent):
    out = QExpSeries.one(series.ring, series.order)
    for _ in range(exponent):
        out = qs_mul(out, series)
    return out


def rational_base():
    return QExpSeries(RAT_RING, 4, {0: Fraction(1), 12: Fraction(-2, 3), GRID: Fraction(5), 60: Fraction(1, 7)})


def poly_base():
    g = POLY_RING.gens()
    return QExpSeries(POLY_RING, 2, {0: 1 + g["u"], 12: g["v"] * Fraction(3, 2), GRID: g["u"] - 2})


@pytest.mark.parametrize("make", [rational_base, poly_base], ids=["rational", "poly"])
def test_pow_matches_repeated_multiplication(make):
    base = make()
    for exponent in range(18):
        expected = repeated_power(base, exponent)
        got = base ** exponent
        assert got == expected, exponent
        assert got != shifted(expected), exponent
