"""Tests for graded polynomial rings, multiplicative classes, bundle
characters, twist-bundle q-expansions, and the rank-248 root calibration.

The heavy oracle here is a six-root splitting model built independently in
sympy: every multiplicative class and character operation is recomputed as
a symmetric function of formal roots and compared coefficient by
coefficient.
"""

from collections import defaultdict
from fractions import Fraction

import pytest
import sympy

from charmod import charring
from charmod.charring import (
    ArgumentError,
    DegreeError,
    DimError,
    GradedPoly,
    exp_combination,
    PolyRing,
    SpecError,
    calibrate_e8_roots,
    ch_tangent,
    default_ring,
    e8_ch,
    line_pair_ch,
    multiplicative_class,
    power_sums_from_pontryagin,
    vb_adams,
    vb_lambda2_sym2,
    witten_character,
    witten_expand,
    witten_log,
)
from charmod.exactmath import GRID, RAT_RING, QExpSeries
from charmod.thetamod import e8_character


# ----------------------------------------------------------------------
# sympy splitting oracle: six formal root squares t1..t6, p_k = e_k(t)
# ----------------------------------------------------------------------

T_SYMS = sympy.symbols("t1:7")
Y_SYMS = sympy.symbols("y1:7")


def sym_truncate(expr, max_t_degree):
    """Drop monomials of total t-degree above the bound."""
    poly = sympy.Poly(sympy.expand(expr), *T_SYMS)
    out = 0
    for monom, coeff in poly.terms():
        if sum(monom) <= max_t_degree:
            out += coeff * sympy.prod(t ** e for t, e in zip(T_SYMS, monom))
    return sympy.expand(out)


def library_poly_to_sympy(poly, images):
    """Evaluate a GradedPoly under sympy images of its generators."""
    total = 0
    for exps, coeff in poly.coeffs.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, e in zip(poly.ring.names, exps):
            if e:
                term *= images[name] ** e
    # terms with generators lacking an image should not appear in these tests
        total += term
    return sympy.expand(total)


def pontryagin_images():
    e1 = sum(T_SYMS)
    e2 = sum(T_SYMS[i] * T_SYMS[j] for i in range(6) for j in range(i + 1, 6))
    e3 = sum(
        T_SYMS[i] * T_SYMS[j] * T_SYMS[k]
        for i in range(6)
        for j in range(i + 1, 6)
        for k in range(j + 1, 6)
    )
    return {"p1": e1, "p2": e2, "p3": e3, "c": 0, "x": 0}


def root_product_class(root_series_coeffs, constant_per_root):
    """prod_i constant * (1 + sum_k a_k t_i^k) truncated at t-degree 3."""
    out = 1
    for t in T_SYMS:
        factor = 1
        for k, a_k in enumerate(root_series_coeffs, start=1):
            factor += a_k * t ** k
        out = sym_truncate(out * constant_per_root * factor, 3)
    return out


# per-root expansions of y/(2 sinh(y/2)) and 2 * (y/2)/tanh(y/2) in t = y^2
AHAT_ROOT = [
    sympy.Rational(-1, 24),
    sympy.Rational(7, 5760),
    sympy.Rational(-31, 967680),
]
LHAT_ROOT = [
    sympy.Rational(1, 12),
    sympy.Rational(-1, 720),
    sympy.Rational(1, 30240),
]


def test_ahat_matches_root_product():
    lib = multiplicative_class("Ahat", 12, default_ring())
    oracle = root_product_class(AHAT_ROOT, 1)
    assert sympy.expand(library_poly_to_sympy(lib, pontryagin_images()) - oracle) == 0


def test_lhat_matches_root_product():
    lib = multiplicative_class("Lhat", 12, default_ring())
    oracle = root_product_class(LHAT_ROOT, 2)
    assert sympy.expand(library_poly_to_sympy(lib, pontryagin_images()) - oracle) == 0


def test_ahat_pinned_coefficients():
    ring = default_ring()
    a = multiplicative_class("Ahat", 12, ring)
    assert a.constant_term() == 1
    assert a.monomial_coefficient(p1=1) == Fraction(-1, 24)
    assert a.monomial_coefficient(p2=1) == Fraction(-1, 1440)
    assert a.monomial_coefficient(p1=2) == Fraction(7, 5760)
    assert a.monomial_coefficient(p3=1) == Fraction(-1, 60480)
    assert a.monomial_coefficient(p1=1, p2=1) == Fraction(11, 241920)
    assert a.monomial_coefficient(p1=3) == Fraction(-31, 967680)


def test_lhat_pinned_coefficients():
    lhat = multiplicative_class("Lhat", 12, default_ring())
    assert lhat.constant_term() == 64
    assert lhat.homogeneous_part(4) == default_ring().gen("p1") * Fraction(16, 3)


def test_multiplicative_class_validation():
    with pytest.raises(DimError):
        multiplicative_class("Ahat", 8, default_ring())
    with pytest.raises(ArgumentError):
        multiplicative_class("Todd", 12, default_ring())


def test_power_sums_newton_identities():
    ring = default_ring()
    g = ring.gens()
    sums = power_sums_from_pontryagin([g["p1"], g["p2"], g["p3"]], 3)
    images = pontryagin_images()
    for k, s in enumerate(sums, start=1):
        oracle = sympy.expand(sum(t ** k for t in T_SYMS))
        assert sympy.expand(library_poly_to_sympy(s, images) - oracle) == 0


def test_tangent_character_against_roots():
    # ch of the complexified tangent: sum over +-roots of exp = 12 + sum 2cosh(y_i)
    lib = ch_tangent(12, default_ring())
    oracle = 6 * 2
    for t in T_SYMS:
        oracle += t + t ** 2 / sympy.Integer(12) + t ** 3 / sympy.Integer(360)
    assert sympy.expand(library_poly_to_sympy(lib, pontryagin_images()) - oracle) == 0


def test_tangent_pinned():
    ring = default_ring()
    ch = ch_tangent(12, ring)
    g = ring.gens()
    assert ch.constant_term() == 12
    assert ch.homogeneous_part(4) == g["p1"]
    expected8 = g["p1"] * g["p1"] * Fraction(1, 12) - g["p2"] * Fraction(1, 6)
    assert ch.homogeneous_part(8) == expected8


def test_adams_on_tangent():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    psi2 = vb_adams(tangent, 2)
    assert psi2.constant_term() == 12
    assert psi2.homogeneous_part(4) == ring.gen("p1") * 4


def test_adams_on_line_pair_doubles_the_class():
    ring = default_ring()
    xi = line_pair_ch(ring.gen("c"))
    doubled = line_pair_ch(ring.gen("c") * 2)
    assert vb_adams(xi, 2) == doubled


def test_adams_rejects_nonpositive():
    ring = default_ring()
    with pytest.raises(ArgumentError):
        vb_adams(ch_tangent(12, ring), 0)


def sym_cosh(u, order=6):
    # cosh truncated in total y-degree
    out = 0
    for k in range(0, order + 1, 2):
        out += u ** k / sympy.Integer(sympy.factorial(k))
    return out


def test_lambda2_sym2_against_pair_roots():
    """Exterior/symmetric squares via the +-root model of the tangent bundle."""
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    lam, sym = vb_lambda2_sym2(tangent)
    assert lam.constant_term() == 66
    assert sym.constant_term() == 78

    y = Y_SYMS
    pairs_lam = 6  # +y_i paired with -y_i
    for i in range(6):
        for j in range(i + 1, 6):
            pairs_lam += 2 * sym_cosh(y[i] + y[j]) + 2 * sym_cosh(y[i] - y[j])
    # S^2 adds the doubled roots exp(+-2y_i)
    pairs_sym = pairs_lam
    for i in range(6):
        pairs_sym += 2 * sym_cosh(2 * y[i])

    y_to_t = {y[i] ** 2: T_SYMS[i] for i in range(6)}

    def to_t(expr):
        poly = sympy.expand(expr)
        for _ in range(6):
            poly = sympy.expand(poly.subs(y_to_t))
        return sym_truncate(poly, 3)

    images = pontryagin_images()
    assert sympy.expand(library_poly_to_sympy(lam, images) - to_t(pairs_lam)) == 0
    assert sympy.expand(library_poly_to_sympy(sym, images) - to_t(pairs_sym)) == 0


def test_lambda_minus_sym_is_minus_adams():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    lam, sym = vb_lambda2_sym2(tangent)
    assert lam - sym == -vb_adams(tangent, 2)
    assert (lam - sym).homogeneous_part(4) == ring.gen("p1") * -4


def test_lambda2_sym2_sum_is_tensor_square():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    lam, sym = vb_lambda2_sym2(tangent)
    assert lam + sym == tangent * tangent


def test_line_pair_pinned():
    ring = default_ring()
    c = ring.gen("c")
    ch = line_pair_ch(c)
    expected = (
        ring.constant(2)
        + c * c
        + (c ** 4) * Fraction(1, 12)
        + (c ** 6) * Fraction(1, 360)
    )
    # truncated at the ring cap, higher powers of c vanish
    assert ch.homogeneous_part(0) + ch.homogeneous_part(4) + ch.homogeneous_part(8) + ch.homogeneous_part(12) == expected


def test_root_data_builders_reject_a_cap_of_16_or_more():
    # the Pontryagin root data stops at pi_3, so at degree 16 Ahat's p1^4
    # would read 37/51609600 (it is 127/154828800), Lhat's 41/25200 (it is
    # -1/18900) and ch(T)'s 0 (it is 2/8!); V's root part stops at x^3
    ring = default_ring(16)
    with pytest.raises(ArgumentError, match="pi_4"):
        multiplicative_class("Ahat", 12, ring)
    with pytest.raises(ArgumentError, match="pi_4"):
        multiplicative_class("Lhat", 12, ring)
    with pytest.raises(ArgumentError, match="pi_4"):
        ch_tangent(12, ring)
    with pytest.raises(ArgumentError, match="x-only character"):
        e8_ch(ring.gen("x"))
    # V of the zero class is still its rank
    assert e8_ch(ring.zero()) == 248


def test_line_pair_requires_degree_2():
    ring = default_ring()
    with pytest.raises(DegreeError):
        line_pair_ch(ring.gen("p1"))


def test_e8_bundle_pinned():
    ring = default_ring()
    x = ring.gen("x")
    ch = e8_ch(x)
    assert ch == ring.constant(248) - 60 * x + 6 * x * x - x ** 3 * Fraction(1, 3)
    with pytest.raises(DegreeError):
        e8_ch(ring.gen("c"))


# ----------------------------------------------------------------------
# graded ring mechanics
# ----------------------------------------------------------------------


def test_ring_cap_truncates():
    ring = PolyRing({"u": 4}, cap=8)
    u = ring.gen("u")
    assert (u ** 3).is_zero()
    assert not (u ** 2).is_zero()


@pytest.mark.parametrize(
    "make",
    [
        lambda: PolyRing({"u": 0}),
        lambda: PolyRing({"u": 4, "v": -2}),
        lambda: PolyRing({"u": 1.5}),
        lambda: GradedPoly(default_ring(), {(1, 0): 1}),
        lambda: GradedPoly(default_ring(), {(1, 0, 0, 0, -1): 1}),
        lambda: PolyRing({"u": 4}, cap=-1),
    ],
    ids=[
        "degree-0",
        "negative-degree",
        "fractional-degree",
        "short-exponents",
        "negative-exponent",
        "negative-cap",
    ],
)
def test_ring_rejects_what_cannot_be_packed(make):
    with pytest.raises(ValueError):
        make()
    ring = default_ring()
    assert GradedPoly(ring, {(1, 0, 0, 0, 1): 2}) == 2 * ring.gen("p1") * ring.gen("x")


@pytest.mark.parametrize("exponent, products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)])
def test_poly_power_makes_no_product_by_one(monkeypatch, exponent, products):
    # square-and-multiply from the base at the lowest set bit of the exponent
    ring = default_ring()
    poly = ring.one() + ring.gen("c") + ring.gen("p1") * Fraction(1, 3)
    expected = ring.one()
    for _ in range(exponent):
        expected = expected * poly
    dot = PolyRing.dot
    calls = []

    def counting_dot(self, pairs):
        calls.append(len(pairs))
        return dot(self, pairs)

    monkeypatch.setattr(PolyRing, "dot", counting_dot)
    assert poly ** exponent == expected
    assert len(calls) == products


def test_poly_inverse_and_division():
    ring = default_ring()
    p1, c = ring.gen("p1"), ring.gen("c")
    unit = ring.one() + p1 * Fraction(1, 3)
    assert (unit * unit.inverse()) == ring.one()
    assert (p1 * p1).divide_by_gen("p1") == p1
    assert (p1 * c ** 3 - c * Fraction(1, 5)).divide_by_gen("c") == p1 * c * c - Fraction(1, 5)
    with pytest.raises(ValueError):
        (ring.one() + p1).divide_by_gen("p1")


def test_substitute_between_rings():
    src = PolyRing({"a": 4}, cap=8)
    dst = PolyRing({"u": 2}, cap=8)
    poly = src.gen("a") + src.constant(3)
    image = poly.substitute({"a": dst.gen("u") ** 2}, dst)
    assert image == dst.gen("u") ** 2 + dst.constant(3)
    with pytest.raises(ValueError):
        poly.substitute({}, dst)

    # several terms over mixed denominators, images with denominators of their own
    two = PolyRing({"a": 4, "b": 2}, cap=8)
    a, b = two.gen("a"), two.gen("b")
    poly = a * a * Fraction(1, 3) + b * Fraction(1, 4) - a * b * Fraction(5, 6) + Fraction(7, 2)
    u = dst.gen("u")
    big_a = u + Fraction(1, 2)
    big_b = u * u * Fraction(2, 7)
    image = poly.substitute({"a": big_a, "b": big_b}, dst)
    assert image == (
        big_a * big_a * Fraction(1, 3)
        + big_b * Fraction(1, 4)
        - big_a * big_b * Fraction(5, 6)
        + Fraction(7, 2)
    )
    # 43/12 + u/3 + 2/7 u^2 - 5/21 u^3, worked by hand
    pinned = {(0,): Fraction(43, 12), (1,): Fraction(1, 3), (2,): Fraction(2, 7), (3,): Fraction(-5, 21)}
    assert image == GradedPoly(dst, pinned)
    # a generator that appears with exponent 0 everywhere needs no image
    assert (a * Fraction(1, 3) + 1).substitute({"a": big_b}, dst) == big_b * Fraction(1, 3) + 1
    with pytest.raises(ValueError, match="'b'"):
        poly.substitute({"a": big_a}, dst)


def test_trivial_bundle_and_coercion():
    ring = default_ring()
    t = ring.constant(5)
    assert t.constant_term() == 5
    assert (t - 5).is_zero()


# ----------------------------------------------------------------------
# twist-bundle expansions
# ----------------------------------------------------------------------


def test_theta_expansion_first_orders():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    reduced = tangent - 12
    expansion = witten_expand("Theta", [tangent], 2)
    assert expansion[Fraction(0)] == ring.one()
    assert expansion[Fraction(1)] == reduced
    lam, sym = vb_lambda2_sym2(reduced)
    assert expansion[Fraction(2)] == sym + reduced


@pytest.mark.parametrize("spec_id", ["Theta1", "Theta2", "Theta3"])
def test_exterior_expansions_first_orders(spec_id):
    # Lambda_s of the reduced tangent t at s = q^n, -q^(n-1/2), q^(n-1/2)
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    t = tangent - 12
    lam, _ = vb_lambda2_sym2(t)
    expected = {
        "Theta1": {Fraction(1): t, Fraction(2): t + lam},
        "Theta2": {Fraction(1, 2): -t, Fraction(1): lam},
        "Theta3": {Fraction(1, 2): t, Fraction(1): lam},
    }[spec_id]
    expansion = witten_expand(spec_id, [tangent], 2)
    for exponent, ch in expected.items():
        assert expansion[exponent] == ch, exponent


def test_theta_twisted_expansion_is_integral_with_zero_rank_tail():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    xi = line_pair_ch(ring.gen("c"))
    expansion = witten_expand("ThetaTwisted", [tangent, xi], 2)
    assert all(exp.denominator == 1 for exp in expansion)
    xi_t = xi - 2
    b1 = tangent - 12 - 3 * xi_t - xi_t * xi_t
    assert expansion[Fraction(1)] == b1
    assert expansion[Fraction(1)].constant_term() == 0


def test_half_integral_support_kinds():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    expansion = witten_expand("Theta2", [tangent], 2)
    assert Fraction(1, 2) in expansion


def test_phi_expansion_q1():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    lam, sym = vb_lambda2_sym2(tangent)
    expansion = witten_expand("Phi", [tangent], 1)
    d1 = 2 * tangent + lam - sym - 12
    assert expansion[Fraction(1)] == d1
    assert expansion[Fraction(1)].constant_term() == 0


def test_witten_character_rejects_a_fractional_rank():
    ring = default_ring()
    tangent = ch_tangent(12, ring)
    xi = line_pair_ch(ring.gen("c"))
    with pytest.raises(ArgumentError, match="integer rank"):
        witten_character("Theta", [tangent + Fraction(1, 2)], 1)
    with pytest.raises(ArgumentError, match="integer rank"):
        witten_character("ThetaTwisted", [tangent, xi - Fraction(1, 3)], 1)


def test_witten_expand_validation():
    ring = default_ring()
    with pytest.raises(SpecError):
        witten_expand("NoSuch", [ch_tangent(12, ring)], 1)
    with pytest.raises(ArgumentError):
        witten_expand("ThetaTwisted", [ch_tangent(12, ring)], 1)


# ----------------------------------------------------------------------
# rank-248 calibration
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# the Adams log, per degree against per Adams power
# ----------------------------------------------------------------------


def _family_terms(spec_id, order):
    """Each factor family's log coefficients as (input index, k, grid
    exponent, integer n): the term n q^(exponent/24) psi^k(E) / k."""
    limit = GRID * order
    for index, (alternating, sign, half_steps) in charring._WITTEN_SPECS[spec_id]:
        for step in range(GRID // 2 if half_steps else GRID, limit + 1, GRID):
            for k in range(1, limit // step + 1):
                yield index, k, step * k, (-1 if alternating and k % 2 == 0 else 1) * sign ** k


def _reduced_inputs(spec_id, ring):
    inputs = [ch_tangent(12, ring), line_pair_ch(ring.gen("c"))]
    needed = 1 + max(index for index, _ in charring._WITTEN_SPECS[spec_id])
    return [ch - ch.constant_term() for ch in inputs[:needed]]


def per_k_pairs(spec_id, ring, order, reduced=None):
    """The log as one (s_k(q), psi^k E) pair per input and Adams power k,
    as `witten_log` built it before grouping by degree, over the reduced
    tangent and xi characters unless ``reduced`` is given."""
    reduced = reduced or _reduced_inputs(spec_id, ring)
    series = defaultdict(lambda: defaultdict(int))
    for index, k, grid_key, n in _family_terms(spec_id, order):
        series[(index, k)][grid_key] += n
    return [(QExpSeries(RAT_RING, order, {g: Fraction(n, k) for g, n in nums.items()}),
             vb_adams(reduced[index], k))
            for (index, k), nums in series.items()]


def per_degree_pairs(spec_id, ring, order, power):
    """The log as one (sum_k n k^power(j) q^.., E_2j) pair per input and
    degree 2j; ``power(j)`` = j - 1 is the grouping of `witten_log`."""
    reduced = _reduced_inputs(spec_id, ring)
    series = defaultdict(lambda: defaultdict(Fraction))
    for index, k, grid_key, n in _family_terms(spec_id, order):
        for degree in (4, 8, 12):
            series[(index, degree)][grid_key] += n * Fraction(k) ** power(degree // 2)
    return [(QExpSeries(RAT_RING, order, nums), reduced[index].homogeneous_part(degree))
            for (index, degree), nums in series.items()]


@pytest.mark.parametrize("spec_id", sorted(charring._WITTEN_SPECS))
@pytest.mark.parametrize("order", [0, 1, 8, 24])
@pytest.mark.parametrize("cap", [12, 15])
def test_per_degree_adams_log_matches_the_per_k_pairs(spec_id, order, cap):
    ring = default_ring(cap)
    inputs = [ch_tangent(12, ring), line_pair_ch(ring.gen("c"))]
    pairs = witten_log(spec_id, inputs, order)
    assert exp_combination(pairs, ring, order) == exp_combination(per_k_pairs(spec_id, ring, order), ring, order)
    # one pair per input and degree 4, 8, 12 carried by E, each series integral
    assert len(pairs) == (len(_reduced_inputs(spec_id, ring)) * 3 if order else 0)
    assert all(c.denominator == 1 for series, _ in pairs for c in series.terms.values())
    expected = per_degree_pairs(spec_id, ring, order, lambda j: j - 1)
    assert {part: series for series, part in pairs} == {part: series for series, part in expected}


def test_adams_log_pair_counts_at_order_24():
    ring = default_ring()
    assert [len(per_k_pairs(s, ring, 24)) for s in ("ThetaTwisted", "Phi")] == [72, 48]
    assert [len(witten_log(s, [ch_tangent(12, ring), line_pair_ch(ring.gen("c"))], 24))
            for s in ("ThetaTwisted", "Phi")] == [6, 3]


@pytest.mark.parametrize("spec_id", sorted(charring._WITTEN_SPECS))
def test_per_degree_adams_log_reads_odd_degrees_as_vb_adams(spec_id):
    # a degree-1 generator puts parts of degree 1 and 3 into E, which
    # psi^k scales by k^0 and k^1 as it does degrees 0 and 2
    ring = PolyRing({"u": 1, "c": 2}, cap=5)
    u, c = ring.gen("u"), ring.gen("c")
    inputs = [3 + u + c * Fraction(1, 2) + u * c - u ** 3 * Fraction(1, 3), 2 + u * u + c * u]
    reduced = [ch - ch.constant_term() for ch in inputs]
    pairs = witten_log(spec_id, inputs, 6)
    assert exp_combination(pairs, ring, 6) == exp_combination(per_k_pairs(spec_id, ring, 6, reduced), ring, 6)
    assert any(c.denominator != 1 for series, _ in pairs for c in series.terms.values())


@pytest.mark.parametrize("spec_id", sorted(charring._WITTEN_SPECS))
def test_per_degree_adams_log_with_k_to_the_j_fails(spec_id):
    # the control: scaling E_2j by k^j, forgetting the 1/k of each term,
    # must not reproduce the per-k pairs
    ring = default_ring()
    oracle = exp_combination(per_k_pairs(spec_id, ring, 8), ring, 8)
    assert exp_combination(per_degree_pairs(spec_id, ring, 8, lambda j: j - 1), ring, 8) == oracle
    assert exp_combination(per_degree_pairs(spec_id, ring, 8, lambda j: j), ring, 8) != oracle


def test_calibration_solves_to_power_sums_of_x():
    ring = default_ring()
    x = ring.gen("x")
    g1, g2, g3 = calibrate_e8_roots(x)
    assert g1 == -2 * x
    assert g2 == 4 * x * x
    assert g3 == -8 * x ** 3


def test_calibration_at_zero():
    ring = default_ring()
    zero = ring.zero()
    assert calibrate_e8_roots(zero) == (zero, zero, zero)


def test_calibrated_character_first_coefficient():
    ring = default_ring()
    x = ring.gen("x")
    char = e8_character(calibrate_e8_roots(x), 2)
    assert char.coefficient(0) == ring.one()
    assert char.coefficient(1) == e8_ch(x)


def test_character_ignores_higher_calibration_slots():
    # below degree 16 every invariant is a polynomial in the quadratic one,
    # so the degree-8/12 slots cannot influence the assembled character;
    # in free generators the quadratic slot must still move it
    ring = PolyRing({"g1": 4, "g2": 8, "g3": 12}, cap=15)
    g = ring.gens()
    zero = ring.zero()
    character = e8_character((g["g1"], g["g2"], g["g3"]), 3)
    assert character == e8_character((g["g1"], zero, zero), 3)
    assert character != e8_character((zero, g["g2"], g["g3"]), 3)
    x = default_ring().gen("x")
    g1, _, _ = calibrate_e8_roots(x)
    zero = x.ring.zero()
    assert e8_character(calibrate_e8_roots(x), 3) == e8_character((g1, zero, zero), 3)
