"""Modular q-series: Eisenstein series, theta products and their log-ratios,
eighth powers of theta constants, the rank-248 character in closed form
(the rank-8 lattice theta along one line), the even unimodular rank-8
lattice theta by counting, numeric checks of the modular transformation
laws, and matching of q-series against one-dimensional spaces of modular
forms.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from .exactmath import GRID, RAT_RING, ArgumentError, QExpSeries, qs_inv, qs_mul
from .charring import e8_root_ch


class PrecisionError(ArithmeticError):
    """A numeric evaluation cannot reach the requested tolerance."""


class NotProportional(ArithmeticError):
    """A q-series is not a constant multiple of the expected basis form."""

    def __init__(self, order, difference):
        super().__init__(
            "mismatch at q^%s: difference %s" % (order, difference)
        )
        self.order = order
        self.difference = difference


# ----------------------------------------------------------------------
# scalar q-series
# ----------------------------------------------------------------------


def _sigma(power, n, alternating=False, odd_cofactor=False):
    """Sum of d**power over the divisors d of n.

    ``alternating`` weights each term by (-1)**(d+1); ``odd_cofactor`` keeps
    only the divisors d with n/d odd.
    """
    total = 0
    for d in range(1, n + 1):
        if n % d or (odd_cofactor and (n // d) % 2 == 0):
            continue
        total += -d ** power if alternating and d % 2 == 0 else d ** power
    return total


#: Leading coefficient -2k/B_k of each normalized Eisenstein series.
_EISENSTEIN = {2: -24, 4: 240, 6: -504, 10: -264, 14: -24}


@lru_cache(maxsize=None)
def eisenstein(k, order):
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n
    truncated at q^order, k in 2, 4, 6, 10, 14.  With no cusp forms of weight
    10 or 14, E_10 = E_4 E_6 and E_14 = E_4^2 E_6 span those spaces."""
    if k not in _EISENSTEIN:
        raise ArgumentError("Eisenstein weight must be 2, 4, 6, 10 or 14, got %r" % (k,))
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(Fraction(_EISENSTEIN[k] * _sigma(k - 1, n)))
    return QExpSeries.from_q_coeffs(RAT_RING, order, coeffs)


@lru_cache(maxsize=None)
def phi(order):
    """The product prod_{n>=1} (1 - q^n) truncated at q^order, by Euler's
    pentagonal number theorem: sum_k (-1)^k q^(k(3k-1)/2) over all integers k."""
    terms = {0: Fraction(1)}
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        terms[GRID * k * (3 * k - 1) // 2] = terms[GRID * k * (3 * k + 1) // 2] = Fraction((-1) ** k)
        k += 1
    return QExpSeries(RAT_RING, order, terms)


def series_in_ring(series, ring):
    """Lift a rational q-series to constant coefficients in a PolyRing."""
    return QExpSeries(ring, series.order, {k: ring.constant(c) for k, c in series.terms.items()})


# ----------------------------------------------------------------------
# theta products and their logarithmic ratios
# ----------------------------------------------------------------------

#: The normalized theta ratios whose logs are taken:
#:   theta:  y theta'(0)/theta(y) = (y/2)/sinh(y/2)
#:           * prod (1-q^j)^2 / ((1-e^y q^j)(1-e^-y q^j));
#:   theta1: cosh(y/2) * prod (1+e^y q^j)(1+e^-y q^j) / (1+q^j)^2;
#:   theta2/theta3 likewise without a prefactor, on exponents j-1/2 and with
#:   signs -/+.
#: Each row is (q^0 log of the classical prefactor at y^2, y^4, y^6; sign,
#: alternating, half_steps), the last three giving the Lambert-series form
#: beyond q^0.  A factor pair over t = q^j or q^(j-1/2) contributes
#: sign * sum_m (+-t)^m/m (e^{my} + e^{-my} - 2), so the y^{2k} coefficient
#: at q^(n/s) is sign * 2/(2k)! * sum m^{2k-1} over the divisors m of n,
#: weighted by (-1)^{m+1} when alternating; s = 2 on half steps, where only
#: divisors with n/m odd occur.
_LOG_RATIO = {
    "theta": ((Fraction(-1, 24), Fraction(1, 2880), Fraction(-1, 181440)), 1, False, False),
    "theta1": ((Fraction(1, 8), Fraction(-1, 192), Fraction(1, 2880)), 1, True, False),
    "theta2": ((Fraction(0),) * 3, -1, False, True),
    "theta3": ((Fraction(0),) * 3, 1, True, True),
}

THETA_KINDS = tuple(_LOG_RATIO)


@lru_cache(maxsize=None)
def theta_log_ratio(kind, order):
    """Coefficients [c_1(q), c_2(q), c_3(q)] of y^2, y^4, y^6 in the log
    ratio; the four kinds sum to log(y/tanh(y/2)) - log 2 at q^0."""
    if kind not in THETA_KINDS:
        raise ArgumentError("unknown theta kind %r" % (kind,))
    prefactor_log, sign, alternating, half_steps = _LOG_RATIO[kind]
    step = GRID // 2 if half_steps else GRID
    out = []
    for k, constant in zip((1, 2, 3), prefactor_log):
        scale = Fraction(2 * sign, factorial(2 * k))
        terms = {0: constant}
        for n in range(1, GRID * order // step + 1):
            terms[step * n] = scale * _sigma(2 * k - 1, n, alternating, half_steps)
        out.append(QExpSeries(RAT_RING, order, terms))
    return tuple(out)


@lru_cache(maxsize=None)
def theta_zero_power8(kind, order):
    """Eighth power of a theta constant as an exact q-series.

    theta1: 2^8 q prod ((1-q^j)(1+q^j)^2)^8 = 2^8 q (sum_{n>=0} q^(n(n+1)/2))^8
    by Gauss, on whole powers; theta2/theta3: prod ((1-q^j)(1 -/+
    q^(j-1/2))^2)^8 = (sum_n (-/+1)^n q^(n^2/2))^8 by the Jacobi triple
    product, on half-integral powers.  The eighth power is three squarings.
    """
    if kind == "theta1":
        terms = {GRID * n * (n + 1) // 2: 1 for n in range(isqrt(2 * order) + 1)}
    elif kind in ("theta2", "theta3"):
        sign = -1 if kind == "theta2" else 1
        terms = {GRID // 2 * n * n: 2 * sign ** n for n in range(1, isqrt(2 * order) + 1)}
        terms[0] = 1
    else:
        raise ArgumentError("unknown even theta kind %r" % (kind,))
    out = QExpSeries(RAT_RING, order, {k: Fraction(c) for k, c in terms.items()})
    for _ in range(3):
        out = qs_mul(out, out)
    return out.q_shift(GRID).scale(256) if kind == "theta1" else out


def theta_eighth_sum(order):
    """(theta1^8 + theta2^8 + theta3^8)(0) / 2 as an exact q-series."""
    total = (
        theta_zero_power8("theta1", order)
        + theta_zero_power8("theta2", order)
        + theta_zero_power8("theta3", order)
    )
    return total.scale(Fraction(1, 2))


# ----------------------------------------------------------------------
# rank-248 character and rank-8 lattice theta
# ----------------------------------------------------------------------


def e8_theta_sum(g, order):
    """phi^8 times the character q-series of the rank-248 bundle with
    degree-4/8/12 root power sums g = (g1, g2, g3), in closed form:
    1 + sum_{n>=1} sigma_3(n) R(n x) q^n with x = -g1/2 and R = `e8_root_ch`.

    It is the rank-8 lattice theta along one line, sum_v q^(|v|^2/2)
    cosh(v_1 y) with y^2 = -2x; its x^j coefficient, j <= 3, is a multiple
    of (q d/dq)^j E4, as there are no cusp forms of weight 6, 8 or 10.
    Below degree 16 every Weyl invariant of the roots is a power of the
    quadratic one (Chevalley), so g2 and g3 are checked for degree but not
    read; at a cap of 16 or more, nonzero g raises ArgumentError.
    """
    g1, g2, g3 = g
    ring = g1.ring
    for value, degree in ((g1, 4), (g2, 8), (g3, 12)):
        if not value.is_zero() and not value.is_homogeneous(degree):
            raise ArgumentError("g-class of degree %d is not homogeneous" % degree)
    if ring.cap >= 16 and not (g2.is_zero() and g3.is_zero()):
        raise ArgumentError("a cap above 15 would read g2 and g3, got %d" % ring.cap)
    # R(n x) scales the degree-4j part r_j x^j of R(x) by n^j
    parts = [e8_root_ch(g1 * Fraction(-1, 2)).homogeneous_part(4 * j) for j in range(4)]
    coeffs = [ring.one()]
    for n in range(1, int(order) + 1):
        weight = _sigma(3, n)
        coeffs.append(ring.dot([(ring.constant(weight * n ** j), part) for j, part in enumerate(parts)]))
    return QExpSeries.from_q_coeffs(ring, order, coeffs)


def e8_character(g, order):
    """Character q-series of the rank-248 bundle from degree-4/8/12 root
    power sums (g1, g2, g3): `e8_theta_sum` times the inverse of phi^8.
    The twisted classes multiply by the theta sum itself; this series
    serves the character comparisons."""
    theta_sum = e8_theta_sum(g, order)
    return qs_mul(theta_sum, series_in_ring(qs_inv(phi(theta_sum.order) ** 8), theta_sum.ring))


def e8_lattice_theta(order):
    """Theta series of the even unimodular rank-8 lattice.

    With u = 2v the lattice is the set of u in Z^8 whose coordinates are
    all even or all odd and whose sum is 0 mod 4 (the integral part and the
    half-integral coset), and v contributes q^(|v|^2/2) = q^(sum u^2/8).
    For each parity, dynamic programming over the coordinates counts the
    vectors by (sum u^2, sum u mod 4) with norm pruning.
    """
    order = int(order)
    if not 0 <= order <= 12:
        raise ArgumentError("order must be between 0 and 12 for the lattice count, got %d" % order)
    budget = 8 * order  # max sum of u^2
    reach = isqrt(budget)
    counts = {}
    for parity in (0, 1):
        values = [u for u in range(-reach, reach + 1) if u % 2 == parity]
        states = {(0, 0): 1}
        for _ in range(8):
            nxt = {}
            for (norm, total), count in states.items():
                for u in values:
                    n2 = norm + u * u
                    if n2 <= budget:
                        key = (n2, (total + u) % 4)
                        nxt[key] = nxt.get(key, 0) + count
            states = nxt
        for (norm, total), count in states.items():
            if total == 0:
                counts[norm // 8] = counts.get(norm // 8, 0) + count

    return QExpSeries(
        RAT_RING, order, {GRID * n: Fraction(c) for n, c in counts.items()}
    )


# ----------------------------------------------------------------------
# numeric transformation checks
# ----------------------------------------------------------------------


#: Each theta function numerically: (prefactor, sign, half_steps, (shift
#: phase, partner), (inversion factor, partner)).  It is [2 q^(1/8) prefactor(pi v)]
#: prod (1 - q^j)(1 + sign z t)(1 + sign t/z) over t = q^j, or q^(j-1/2) on half steps.
#: The laws: theta(v, tau + 1) = phase * partner(v, tau) and theta(v, -1/tau)
#: = factor * sqrt(tau/i) exp(pi i tau v^2) * partner(tau v, tau).
_NUMERIC = {
    "theta": (cmath.sin, -1, False, (cmath.exp(1j * cmath.pi / 4), "theta"), (-1j, "theta")),
    "theta1": (cmath.cos, 1, False, (cmath.exp(1j * cmath.pi / 4), "theta1"), (1, "theta2")),
    "theta2": (None, -1, True, (1, "theta3"), (1, "theta1")),
    "theta3": (None, 1, True, (1, "theta2"), (1, "theta3")),
}


def _theta_numeric(kind, v, tau, terms):
    # Fractional q-powers are defined through tau (q^r := exp(2 pi i tau r)),
    # not as principal powers of q, so the shift law picks up the right phase.
    prefactor, sign, half_steps, _, _ = _NUMERIC[kind]
    q = cmath.exp(2j * cmath.pi * tau)
    q_eighth = cmath.exp(1j * cmath.pi * tau / 4)
    q_half = cmath.exp(1j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi * v)
    out = 2 * q_eighth * prefactor(cmath.pi * v) if prefactor else 1
    for j in range(1, terms + 1):
        qj = q ** j
        t = q_half ** (2 * j - 1) if half_steps else qj
        out *= (1 - qj) * (1 + sign * z * t) * (1 + sign * t / z)
    return out


def _e2_numeric(tau, terms):
    q = cmath.exp(2j * cmath.pi * tau)
    out = 1 + 0j
    for n in range(1, terms + 1):
        out -= 24 * _sigma(1, n) * q ** n
    return out


def _tail_bound(tau, v, terms):
    q_abs = abs(cmath.exp(2j * cmath.pi * tau))
    z_abs = abs(cmath.exp(2j * cmath.pi * v)) if v is not None else 1.0
    growth = max(z_abs, 1.0 / z_abs, 1.0)
    if q_abs >= 1:
        return float("inf")
    # dropped factors deviate from 1 by <= 3*growth*q^j each; bound the sum of
    # the tail and multiply by a bound on the product magnitude itself
    lead = q_abs ** (terms + 0.5) * growth
    magnitude = cmath.exp(6.0 * growth * q_abs / (1 - q_abs)).real
    return 60.0 * (terms + 2) ** 2 * lead / (1 - q_abs) * magnitude


NUMERIC_KINDS = THETA_KINDS + ("E2",)


def numeric_transform_check(kind, v, tau, terms=40, tol=1e-8):
    """Residuals of the shift and inversion laws at a numeric point.

    Returns a dict with both residuals, the estimated truncation tail, and
    a ``passed`` flag (residuals below ``tol``).  Raises ArgumentError for
    a ``tau`` or ``v`` that is not finite, off the upper half-plane, for
    ``terms`` < 1 and for a ``tol`` that is not finite and positive, and
    PrecisionError when the truncation tail cannot be pushed below tol/10
    for every series involved.
    """
    if kind not in NUMERIC_KINDS:
        raise ArgumentError("unknown kind %r" % (kind,))
    if terms < 1:
        raise ArgumentError("terms must be at least 1, got %d" % terms)
    if not 0 < tol < float("inf"):
        raise ArgumentError("tol must be finite and positive, got %r" % tol)
    tau = complex(tau)
    v = 0j if v is None else complex(v)
    if not (cmath.isfinite(tau) and cmath.isfinite(v)):
        raise ArgumentError("tau and v must be finite, got tau=%s, v=%s" % (tau, v))
    if tau.imag <= 0:
        raise ArgumentError("tau must be in the upper half-plane")
    inv_tau = -1 / tau

    worst = max(
        _tail_bound(tau, v, terms),
        _tail_bound(tau + 1, v, terms),
        _tail_bound(inv_tau, v, terms),
        _tail_bound(tau, tau * v, terms),
    )
    if not worst < tol / 10:
        raise PrecisionError(
            "truncation tail %.3e exceeds tol/10 = %.3e; raise terms" % (worst, tol / 10)
        )

    root = cmath.sqrt(tau / 1j)
    gauss = cmath.exp(1j * cmath.pi * tau * v * v)

    if kind == "E2":
        shift_residual = abs(_e2_numeric(tau + 1, terms) - _e2_numeric(tau, terms))
        inversion_residual = abs(
            _e2_numeric(inv_tau, terms)
            - (tau * tau * _e2_numeric(tau, terms) - 6j * tau / cmath.pi)
        )
    else:
        _, _, _, (shift_phase, shift_partner), (factor, inversion_partner) = _NUMERIC[kind]
        shift_residual = abs(
            _theta_numeric(kind, v, tau + 1, terms)
            - shift_phase * _theta_numeric(shift_partner, v, tau, terms)
        )
        inversion_residual = abs(
            _theta_numeric(kind, v, inv_tau, terms)
            - factor * root * gauss * _theta_numeric(inversion_partner, tau * v, tau, terms)
        )

    return {
        "kind": kind,
        "tau": tau,
        "v": None if kind == "E2" else v,
        "shift_residual": shift_residual,
        "inversion_residual": inversion_residual,
        "tail_bound": worst,
        "passed": shift_residual < tol and inversion_residual < tol,
    }


# ----------------------------------------------------------------------
# modular-basis matching
# ----------------------------------------------------------------------

def match_modular_basis(series, weight):
    """Assert ``series = m * E_weight`` with m the q^0 coefficient; return m.

    The weight is 10 or 14, where E_weight spans the space of modular forms.
    Works for rational series and for series with polynomial coefficients.
    Raises NotProportional carrying the first failing exponent and the
    difference there.
    """
    if weight not in (10, 14):
        raise ArgumentError("weight must be 10 or 14, got %r" % (weight,))
    basis = eisenstein(weight, series.order)
    m = series.coefficient(0)
    zero = series.ring.zero()
    keys = set(series.terms) | {GRID * n for n in range(series.order + 1)}
    for grid_key in sorted(keys):
        actual = series.terms.get(grid_key, zero)
        if grid_key % GRID == 0:
            expected = m * basis.coefficient(Fraction(grid_key, GRID))
        else:
            expected = zero
        if actual != expected:
            raise NotProportional(Fraction(grid_key, GRID), actual - expected)
    return m
