"""Tests for the modular layer: Eisenstein series, the Euler product, theta
log-ratios against divisor-sum oracles, eighth-power sums, the rank-248
character and its closed form against the theta-sum oracle, and
floating-point transformation-law checks."""

import cmath
from fractions import Fraction

import pytest

from charmod.charring import (
    ArgumentError,
    PolyRing,
    calibrate_e8_roots,
    default_ring,
    exp_combination,
)
from charmod.exactmath import (
    GRID,
    RAT_RING,
    QExpSeries,
    _exp_nilpotent,
    qs_inv,
    qs_log,
    qs_mul,
)
from charmod import thetamod
from charmod.thetamod import (
    THETA_KINDS,
    NotProportional,
    PrecisionError,
    e8_character,
    e8_lattice_theta,
    e8_theta_sum,
    eisenstein,
    match_modular_basis,
    numeric_transform_check,
    phi,
    series_in_ring,
    theta_eighth_sum,
    theta_log_ratio,
    theta_zero_power8,
)


def sigma(power, n):
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def alt_sigma(power, n):
    return sum((-1) ** (d + 1) * d ** power for d in range(1, n + 1) if n % d == 0)


def euler_product(order):
    """prod_{n>=1} (1 - q^n), one factor per n."""
    out = QExpSeries.one(RAT_RING, order)
    for n in range(1, order + 1):
        out = qs_mul(out, QExpSeries(RAT_RING, order, {0: Fraction(1), GRID * n: Fraction(-1)}))
    return out


def shifted(series):
    """``series`` with 1 added to its highest coefficient (q^0 when zero)."""
    terms = dict(series.terms)
    k = max(terms, default=0)
    terms[k] = terms.get(k, Fraction(0)) + 1
    return QExpSeries(series.ring, series.order, terms)


# ----------------------------------------------------------------------
# Eisenstein series and the Euler product
# ----------------------------------------------------------------------


def test_eisenstein_pinned_rows():
    assert eisenstein(4, 6).as_q_coeffs() == [1, 240, 2160, 6720, 17520, 30240, 60480]
    assert eisenstein(2, 3).as_q_coeffs() == [1, -24, -72, -96]
    assert eisenstein(6, 3).as_q_coeffs() == [1, -504, -16632, -122976]
    with pytest.raises(ArgumentError):
        eisenstein(8, 3)


def test_eisenstein_of_weight_10_and_14_are_the_products():
    # the weight-10 and weight-14 spaces are one-dimensional, so the closed
    # forms equal E4 E6 and E4^2 E6 built by series products
    e4, e6 = eisenstein(4, 24), eisenstein(6, 24)
    assert eisenstein(10, 24) == qs_mul(e4, e6)
    assert eisenstein(14, 24) == qs_mul(qs_mul(e4, e4), e6)
    assert eisenstein(10, 24) != shifted(qs_mul(e4, e6))
    assert eisenstein(10, 3).as_q_coeffs() == [1, -264, -135432, -5196576]
    assert eisenstein(14, 2).as_q_coeffs() == [1, -24, -196632]


def test_eisenstein_divisor_sums():
    e4 = eisenstein(4, 8)
    for n in range(1, 9):
        assert e4.coefficient(n) == 240 * sigma(3, n)


def test_phi_euler_product():
    # pentagonal-number signs
    assert phi(10).as_q_coeffs() == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0]
    for order in (0, 1, 5, 12, 24, 40):
        expected = euler_product(order)
        assert phi(order) == expected
        assert phi(order) != shifted(expected)


def test_phi_eighth_inverse_row():
    inv8 = qs_inv(phi(6) ** 8)
    assert inv8.as_q_coeffs() == [1, 8, 44, 192, 726, 2464, 7704]


# ----------------------------------------------------------------------
# theta log-ratios against closed divisor-sum forms
# ----------------------------------------------------------------------


def test_theta_ratio_against_lambert_series():
    c1, c2, c3 = theta_log_ratio("theta", 6)
    for n in range(7):
        assert c1.coefficient(n) == (Fraction(-1, 24) if n == 0 else sigma(1, n))
        assert c2.coefficient(n) == (
            Fraction(1, 2880) if n == 0 else Fraction(sigma(3, n), 12)
        )
        assert c3.coefficient(n) == (
            Fraction(-1, 181440) if n == 0 else Fraction(sigma(5, n), 360)
        )


# The product route: multiply out each normalized theta ratio over a ring in
# y, then take the series logarithm.  Independent of the divisor sums that
# theta_log_ratio uses.

#: log of the q^0 prefactor: (y/2)/sinh(y/2) for theta, cosh(y/2) for theta1
PRODUCT_PREFACTOR_LOG = {
    "theta": {2: Fraction(-1, 24), 4: Fraction(1, 2880), 6: Fraction(-1, 181440)},
    "theta1": {2: Fraction(1, 8), 4: Fraction(-1, 192), 6: Fraction(1, 2880)},
}


def geometric_inverse(ring, order, base, unit):
    """(1 - unit * q^(base/GRID))^{-1} as an explicit geometric sum."""
    terms = {}
    power = ring.one()
    m = 0
    while m * base <= GRID * order:
        terms[m * base] = power
        power = power * unit
        m += 1
    return QExpSeries(ring, order, terms)


def product_ratio(kind, order):
    """theta:  (y/2)/sinh(y/2) prod (1-q^j)^2 / ((1-e^y q^j)(1-e^-y q^j));
    theta1: cosh(y/2) prod (1+e^y q^j)(1+e^-y q^j) / (1+q^j)^2;
    theta2/theta3 likewise on exponents j-1/2 with signs -/+."""
    ring = PolyRing({"y": 2}, cap=12)
    y = ring.gen("y")
    out = QExpSeries.one(ring, order)
    prefactor_log = ring.zero()
    for y_power, coeff in PRODUCT_PREFACTOR_LOG.get(kind, {}).items():
        prefactor_log = prefactor_log + y ** y_power * coeff
    out = out.scale(_exp_nilpotent(prefactor_log))

    if kind in ("theta", "theta1"):
        bases = [GRID * j for j in range(1, order + 1)]
    else:
        bases = [12 * (2 * j - 1) for j in range(1, order + 1)]
    sign = -1 if kind in ("theta", "theta2") else 1
    exp_plus, exp_minus = _exp_nilpotent(y), _exp_nilpotent(-y)
    for base in bases:
        if kind == "theta":
            numer = QExpSeries(ring, order, {0: ring.one(), base: ring.constant(-2),
                                             2 * base: ring.one()})
            out = qs_mul(qs_mul(out, numer), qs_mul(
                geometric_inverse(ring, order, base, exp_plus),
                geometric_inverse(ring, order, base, exp_minus)))
        else:
            plus = QExpSeries(ring, order, {0: ring.one(), base: exp_plus * sign})
            minus = QExpSeries(ring, order, {0: ring.one(), base: exp_minus * sign})
            inv = geometric_inverse(ring, order, base, ring.constant(-sign))
            out = qs_mul(qs_mul(out, plus), qs_mul(minus, qs_mul(inv, inv)))
    return out


def product_log_ratio(kind, order):
    log_series = qs_log(product_ratio(kind, order))
    for poly in log_series.terms.values():
        assert all(exps[0] % 2 == 0 for exps in poly.coeffs), "odd power of y"
    return tuple(
        QExpSeries(RAT_RING, order, {
            key: poly.monomial_coefficient(y=2 * k) for key, poly in log_series.terms.items()
        })
        for k in (1, 2, 3)
    )


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_theta_ratio_matches_product_route(kind):
    for order in list(range(9)) + [12]:
        assert theta_log_ratio(kind, order) == product_log_ratio(kind, order), (kind, order)


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_product_route_sees_a_shifted_coefficient(kind):
    oracle = product_log_ratio(kind, 4)
    c1, c2, c3 = theta_log_ratio(kind, 4)
    key = 36 if kind in ("theta2", "theta3") else 48  # q^(3/2) or q^2
    terms = dict(c2.terms)
    terms[key] = terms.get(key, Fraction(0)) + 1
    shifted = QExpSeries(RAT_RING, 4, terms)
    assert (c1, c2, c3) == oracle
    assert (c1, shifted, c3) != oracle


def test_theta_ratio_first_is_weight_two():
    c1 = theta_log_ratio("theta", 8)[0]
    e2 = eisenstein(2, 8)
    for n in range(9):
        assert c1.coefficient(n) == -Fraction(e2.coefficient(n), 24)


def test_theta1_ratio_alternating_divisors():
    d1 = theta_log_ratio("theta1", 6)[0]
    for n in range(7):
        assert d1.coefficient(n) == (Fraction(1, 8) if n == 0 else alt_sigma(1, n))


def test_half_step_ratios_cancel_in_pairs():
    # the two half-integral families are opposite on odd half-exponents
    h2 = theta_log_ratio("theta2", 6)[0]
    h3 = theta_log_ratio("theta3", 6)[0]
    total = h2 + h3
    assert all(key % 24 == 0 for key, coeff in total.terms.items() if coeff != 0)


def test_ratio_constants_match_multiplicative_tables():
    # q^0 parts are the per-root log coefficients of the two genera
    theta_c = [s.coefficient(0) for s in theta_log_ratio("theta", 2)]
    assert theta_c == [Fraction(-1, 24), Fraction(1, 2880), Fraction(-1, 181440)]
    # the four kinds sum to the log of the Lhat root function, less log 2
    parts = [theta_log_ratio(kind, 2) for kind in THETA_KINDS]
    lhat_c = [sum(part[i].coefficient(0) for part in parts) for i in range(3)]
    assert lhat_c == [Fraction(1, 12), Fraction(-7, 1440), Fraction(31, 90720)]
    with pytest.raises(ArgumentError):
        theta_log_ratio("nosuch", 2)


# ----------------------------------------------------------------------
# eighth powers and the rank-248 character
# ----------------------------------------------------------------------


def test_eighth_sum_is_weight_four():
    assert theta_eighth_sum(6) == eisenstein(4, 6)


def test_lattice_theta_matches_eighth_sum():
    assert e8_lattice_theta(5) == theta_eighth_sum(5)
    with pytest.raises(ArgumentError):
        e8_lattice_theta(13)


def product_power8(kind, order):
    """The product routes: theta1 as 2^8 q prod ((1-q^j)(1+q^j)^2)^8, and
    theta2/theta3 as prod ((1-q^j)(1 -/+ q^(j-1/2))^2)^8, a factor per j."""
    if kind == "theta1":
        out = QExpSeries(RAT_RING, order, {GRID: Fraction(256)})
        steps = [(GRID * j, Fraction(1)) for j in range(1, order + 1)]
    else:
        out = QExpSeries.one(RAT_RING, order)
        sign = Fraction(-1) if kind == "theta2" else Fraction(1)
        steps = [(12 * (2 * j - 1), sign) for j in range(1, order + 1)]
    for j, (step, sign) in enumerate(steps, start=1):
        whole = QExpSeries(RAT_RING, order, {0: Fraction(1), GRID * j: Fraction(-1)})
        other = QExpSeries(RAT_RING, order, {0: Fraction(1), step: sign})
        out = qs_mul(out, qs_mul(whole, qs_mul(other, other)) ** 8)
    return out


@pytest.mark.parametrize("order", [0, 1, 5, 12, 24])
@pytest.mark.parametrize("kind", ["theta1", "theta2", "theta3"])
def test_eighth_power_matches_product_route(kind, order):
    expected = product_power8(kind, order)
    got = theta_zero_power8(kind, order)
    assert got == expected
    assert got != shifted(expected)


def test_zero_value_eighth_powers_sum():
    kinds = ("theta1", "theta2", "theta3")
    total = None
    for kind in kinds:
        part = theta_zero_power8(kind, 5)
        total = part if total is None else total + part
    expected = eisenstein(4, 5).scale(Fraction(2))
    assert total == expected


def test_character_constants_by_independent_division():
    # divide the weight-4 row by the eighth power of the Euler product with
    # plain list arithmetic, no series machinery
    e4 = [1, 240, 2160, 6720, 17520, 30240, 60480]
    phi8 = (phi(6) ** 8).as_q_coeffs()
    quotient = []
    for n in range(7):
        value = Fraction(e4[n]) - sum(
            Fraction(phi8[j]) * quotient[n - j] for j in range(1, n + 1)
        )
        quotient.append(value / phi8[0])
    assert quotient[:4] == [1, 248, 4124, 34752]

    ring = default_ring(4)
    zero = ring.zero()
    char = e8_character((zero, zero, zero), 3)
    assert [char.coefficient(n).constant_term() for n in range(4)] == quotient[:4]


def test_character_q1_symbolic_combination():
    # before dividing by the Euler-product power, the q^1 coefficient is
    # 240 + 30*(first power sum) + higher terms in it
    gring = PolyRing({"g1": 4, "g2": 8, "g3": 12}, cap=12)
    g = gring.gens()
    char = e8_character((g["g1"], g["g2"], g["g3"]), 2)
    numerator = qs_mul(char, series_in_ring(phi(2) ** 8, gring))
    q1 = numerator.coefficient(1)
    assert q1.constant_term() == 240
    assert q1.monomial_coefficient(g1=1) == 30
    assert q1.monomial_coefficient(g2=1) == 0
    assert q1.monomial_coefficient(g3=1) == 0


def test_character_validates_homogeneity():
    ring = default_ring()
    x = ring.gen("x")
    with pytest.raises(ArgumentError):
        e8_character((x * x, ring.zero(), ring.zero()), 1)


@pytest.mark.parametrize("calibrated", [True, False])
def test_theta_sum_is_phi8_times_the_character(calibrated):
    # the twisted classes multiply by the theta sum in place of
    # phi^8 * e8_character, so the two must agree exactly
    n = 6
    ring = default_ring()
    zero = ring.zero()
    g = calibrate_e8_roots(ring.gen("x")) if calibrated else (zero, zero, zero)
    theta_sum = e8_theta_sum(g, n)
    assert theta_sum == qs_mul(series_in_ring(phi(n) ** 8, ring), e8_character(g, n))
    assert theta_sum.coefficient(1).constant_term() == 240


def theta_sum_oracle(g, order):
    """The E8 factor as the theta sum (1/2) sum_a theta_a(0)^8
    exp(sum_k c_{a,k}(q) g_k) over the three even theta kinds a, from the
    theta log-ratios c_{a,k} and the eighth powers; the half-integral
    powers of theta2^8 and theta3^8 must cancel."""
    ring = g[0].ring
    acc = QExpSeries.zero(ring, order)
    for kind in ("theta1", "theta2", "theta3"):
        exponential = exp_combination(zip(theta_log_ratio(kind, order), g), ring, order)
        acc = acc + qs_mul(series_in_ring(theta_zero_power8(kind, order), ring), exponential)
    assert all(grid_key % GRID == 0 for grid_key in acc.terms)
    return acc.scale(Fraction(1, 2))


@pytest.mark.parametrize("cap", [12, 15])
def test_closed_form_matches_the_theta_sum(cap):
    ring = default_ring(cap)
    g = calibrate_e8_roots(ring.gen("x"))
    assert e8_theta_sum(g, 24) == theta_sum_oracle(g, 24)


@pytest.mark.parametrize("cap", [12, 15])
def test_closed_form_matches_the_theta_sum_in_free_generators(cap):
    # below degree 16 the theta sum does not depend on g2 and g3, which
    # the closed form does not read; nor does the character, which is the
    # theta sum over phi^8
    gring = PolyRing({"g1": 4, "g2": 8, "g3": 12}, cap=cap)
    g = gring.gens()
    zero = gring.zero()
    expected = theta_sum_oracle((g["g1"], g["g2"], g["g3"]), 8)
    assert theta_sum_oracle((g["g1"], zero, zero), 8) == expected
    assert e8_theta_sum((g["g1"], g["g2"], g["g3"]), 8) == expected
    character = e8_character((g["g1"], g["g2"], g["g3"]), 8)
    assert qs_mul(character, series_in_ring(phi(8) ** 8, gring)) == expected


def test_e8_factor_rejects_a_cap_of_16_or_more():
    # from degree 16 on E8 has a Weyl invariant of degree 8 in the roots,
    # which no power sums (g1, g2, g3) carry; with g = 0 the factor is E4
    ring = default_ring(16)
    g = calibrate_e8_roots(ring.gen("x"))
    with pytest.raises(ArgumentError):
        e8_theta_sum(g, 2)
    with pytest.raises(ArgumentError):
        e8_character(g, 2)
    zero = ring.zero()
    assert e8_theta_sum((zero, zero, zero), 6) == series_in_ring(eisenstein(4, 6), ring)


# ----------------------------------------------------------------------
# one-dimensional modular matching
# ----------------------------------------------------------------------


def test_match_modular_basis_positive():
    basis = eisenstein(10, 5)
    scaled = basis.scale(Fraction(-7, 3))
    assert match_modular_basis(scaled, 10) == Fraction(-7, 3)


def test_match_modular_basis_negative():
    basis = eisenstein(14, 5)
    perturbed = basis + QExpSeries.from_q_coeffs(
        RAT_RING, 5, [Fraction(0), Fraction(0), Fraction(1)]
    )
    with pytest.raises(NotProportional) as info:
        match_modular_basis(perturbed, 14)
    assert info.value.order == 2
    assert info.value.difference == 1


@pytest.mark.parametrize("weight", [4, 12])
def test_match_modular_basis_rejects_other_weights(weight):
    # E4 exists, but only the weights 10 and 14 are matched; 12 has a cusp form
    with pytest.raises(ArgumentError):
        match_modular_basis(eisenstein(4, 5), weight)


# ----------------------------------------------------------------------
# numeric transformation laws
# ----------------------------------------------------------------------


def test_numeric_all_kinds_at_2i():
    for kind in ("theta", "theta1", "theta2", "theta3", "E2"):
        result = numeric_transform_check(kind, 0.3 + 0.1j, 2j, terms=40, tol=1e-8)
        assert result["passed"], (kind, result)
        assert result["shift_residual"] < 1e-8
        assert result["inversion_residual"] < 1e-8


def test_numeric_generic_tau():
    tau = 0.37 + 1.21j
    for kind in ("theta", "theta2"):
        result = numeric_transform_check(kind, 0.2 - 0.05j, tau, terms=60, tol=1e-8)
        assert result["passed"], (kind, result)


def explicit_theta(kind, v, tau, terms):
    """Each theta product written out by hand, one branch per kind."""
    q = cmath.exp(2j * cmath.pi * tau)
    q_eighth = cmath.exp(1j * cmath.pi * tau / 4)
    q_half = cmath.exp(1j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi * v)
    if kind == "theta":
        out = 2 * q_eighth * cmath.sin(cmath.pi * v)
    elif kind == "theta1":
        out = 2 * q_eighth * cmath.cos(cmath.pi * v)
    else:
        out = 1
    for j in range(1, terms + 1):
        qj = q ** j
        qh = q_half ** (2 * j - 1)
        if kind == "theta":
            out *= (1 - qj) * (1 - z * qj) * (1 - qj / z)
        elif kind == "theta1":
            out *= (1 - qj) * (1 + z * qj) * (1 + qj / z)
        elif kind == "theta2":
            out *= (1 - qj) * (1 - z * qh) * (1 - qh / z)
        elif kind == "theta3":
            out *= (1 - qj) * (1 + z * qh) * (1 + qh / z)
    return out


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_numeric_theta_matches_the_explicit_products(kind):
    for tau in (2j, 0.37 + 1.21j, -0.4 + 0.9j, 0.5 + 0.7j):
        for v in (0j, 0.3 + 0.1j, 0.2 - 0.05j, 0.5, tau * (0.2 - 0.05j)):
            for terms in (1, 10, 40):
                expected = explicit_theta(kind, v, tau, terms)
                assert thetamod._theta_numeric(kind, v, tau, terms) == expected, (tau, v, terms)


@pytest.mark.parametrize(
    "label, kind, index, value, must_fail",
    [
        ("theta1 cos to sin", "theta1", 0, cmath.sin, ("theta1", "theta2")),
        ("theta2 sign -1 to +1", "theta2", 1, 1, ("theta1", "theta2", "theta3")),
        ("theta inversion -1j to 1j", "theta", 4, (1j, "theta"), ("theta",)),
    ],
)
def test_a_wrong_numeric_row_fails_its_laws(monkeypatch, label, kind, index, value, must_fail):
    row = list(thetamod._NUMERIC[kind])
    row[index] = value
    monkeypatch.setitem(thetamod._NUMERIC, kind, tuple(row))
    for checked in THETA_KINDS:
        result = numeric_transform_check(checked, 0.3 + 0.1j, 1.1j, terms=40, tol=1e-8)
        assert result["passed"] == (checked not in must_fail), (label, checked, result)


def test_numeric_rejects_lower_half_plane():
    with pytest.raises(ArgumentError):
        numeric_transform_check("theta", 0.0, 1 - 2j)


def test_numeric_precision_guard():
    with pytest.raises(PrecisionError):
        numeric_transform_check("theta", 0.0, 0.02j, terms=6)
