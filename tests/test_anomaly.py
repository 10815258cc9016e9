"""Tests for the verification registry: the six main identities, the
factorization and degree-8 displays, boundary comparisons, residue-2
reductions, and the report plumbing."""

import math
from fractions import Fraction

import pytest

from charmod import anomaly, charring, exactmath, thetamod
from charmod.anomaly import (
    CLASS_KINDS,
    DEG8_IDS,
    MOD2_RING,
    REGISTRY_IDS,
    THEOREM_IDS,
    UnsupportedGenerator,
    VerificationReport,
    boundary_ring,
    boundary_tanh_term,
    build_twisted_class,
    cubic_form,
    deg8_display_sides,
    degree_part_series,
    display_bundles,
    exp_minus_one_over,
    mod2_reduce,
    restrict_to_u,
    run_registry,
    theorem_sides,
    verify_differ,
    verify_identity,
    _check_fact,
)
from charmod.charring import (
    ArgumentError,
    PolyRing,
    ch_tangent,
    default_ring,
    e8_ch,
    exp_combination,
    line_pair_ch,
    multiplicative_class,
    witten_expand,
)
from charmod.exactmath import GRID, QExpSeries, _exp_nilpotent, qs_inv, qs_mul
from charmod.thetamod import eisenstein, match_modular_basis

FACT_IDS = [reg_id for reg_id in REGISTRY_IDS if reg_id.startswith("fact_")]


def _paper_forms(ring):
    """The paper's cubic forms L * Q as (L, Q) for each (base, E8 copies),
    written out from its literal building blocks."""
    g = ring.gens()
    p1, p2, c, x = g["p1"], g["p2"], g["c"], g["x"]
    lam = p1 * Fraction(1, 2)
    p = (p2 - lam * lam) * Fraction(1, 2)
    pt = p - 3 * lam * lam
    lam_c = (p1 - 3 * c * c) * Fraction(1, 2)
    p_c = (4 * p2 - p1 * p1 - 6 * p1 * c * c + 39 * c ** 4) * Fraction(1, 8)
    pt_c = p_c - 3 * lam_c * lam_c
    C, Ct = lam + 2 * x, lam + x
    C_c, Ct_c = lam_c + 2 * x, lam_c + x
    D, Dt = -p1 + 2 * x, -p1 + x
    return {
        ("spin", 2): (C, p - C * C),
        ("spin", 1): (Ct, pt + 6 * lam * Ct - 4 * Ct * Ct),
        ("spinc", 2): (C_c, p_c - C_c * C_c),
        ("spinc", 1): (Ct_c, pt_c + 6 * lam_c * Ct_c - 4 * Ct_c * Ct_c),
        ("orient", 2): (D, 4 * p1 * p1 - 7 * p2 - D * D),
        ("orient", 1): (Dt, p1 * p1 - 7 * p2 - 6 * p1 * Dt - 4 * Dt * Dt),
    }


def _paper_bundles(ring):
    """The paper's index bundles for each (base, E8 copies), written out
    from T, V and xi: the spin ones and frakA-frakD."""
    b = display_bundles(ring)
    T, V, xi_t, lam2, sym2 = b["T"], b["V"], b["xi_t"], b["lam2"], b["sym2"]
    return {
        ("spin", 2): 2 * V + T - 4,
        ("spin", 1): V + T + 244,
        ("spinc", 2): 2 * V + T - 4 - 3 * xi_t - xi_t * xi_t,
        ("spinc", 1): V + T + 244 - 3 * xi_t - xi_t * xi_t,
        ("orient", 2): 2 * V + 2 * T + lam2 - sym2 - 4,
        ("orient", 1): V + 2 * T + lam2 - sym2 + 244,
    }


#: The registry's weights as the paper writes them, each with the (base,
#: E8 copies) of its id: for a theorem the weights of the cubic form L Q
#: and of the index density, for a degree-8 display the weight of Q, and
#: for a factorization the modular weight.
PAPER_WEIGHTS = {
    "wfh_main": (("spin", 2), Fraction(1, 48), Fraction(1, 4)),
    "spin_new": (("spin", 1), Fraction(1, 24), Fraction(1, 2)),
    "spinc_main": (("spinc", 2), Fraction(1, 24), Fraction(1, 2)),
    "spinc_new": (("spinc", 1), Fraction(1, 12), Fraction(1)),
    "o1": (("orient", 2), Fraction(1, 6), Fraction(1, 32)),
    "o2": (("orient", 1), Fraction(1, 3), Fraction(1, 16)),
    "deg8_spinc_q": (("spinc", 2), Fraction(1, 24)),
    "deg8_spinc_r": (("spinc", 1), Fraction(1, 24)),
    "deg8_orient_q": (("orient", 2), Fraction(8, 3)),
    "deg8_orient_r": (("orient", 1), Fraction(8, 3)),
    "fact_spinc_q": (("spinc", 2), 14),
    "fact_spinc_r": (("spinc", 1), 10),
    "fact_orient_q": (("orient", 2), 14),
    "fact_orient_r": (("orient", 1), 10),
}


# ----------------------------------------------------------------------
# registry end to end
# ----------------------------------------------------------------------


def test_registry_all_pass():
    reports = run_registry(order=3)
    assert [r.id for r in reports] == list(REGISTRY_IDS)
    for report in reports:
        assert report.passed, (report.id, report.witness)
        assert report.witness == ""
        assert report.order == 3


def test_registry_subset_keeps_request_order():
    reports = run_registry(["o1", "wfh_main"], order=2)
    assert [r.id for r in reports] == ["o1", "wfh_main"]


def test_registry_rejects_unknown_id():
    with pytest.raises(ArgumentError, match="unknown id 'nope' \\(known: wfh_main, "):
        run_registry(["wfh_main", "nope"])
    with pytest.raises(ArgumentError, match="unknown id 'nope'"):
        verify_identity("nope")


def test_registry_rejects_settings_that_make_checks_vacuous():
    # below cap 12 every degree-12 part is 0; below order 1 there is no q^1
    with pytest.raises(ArgumentError):
        run_registry(order=3, cap=8)
    with pytest.raises(ArgumentError):
        verify_identity("fact_spinc_q", order=3, cap=11)
    with pytest.raises(ArgumentError):
        verify_identity("wfh_main", order=0)
    # above cap 15 the E8 bundle V has no character in x alone
    with pytest.raises(ArgumentError):
        verify_identity("wfh_main", order=1, cap=16)
    with pytest.raises(ArgumentError):
        build_twisted_class("Qc", 1, default_ring(16))
    # and the Pontryagin root data stops at pi_3, so no class builds there
    with pytest.raises(ArgumentError):
        build_twisted_class("Wc", 1, default_ring(16))


def test_fact_check_fails_on_zero_multiplier():
    witness, _, _, data = _check_fact("fact_spinc_q", 3, default_ring(8))
    assert "multiplier 0" in witness
    assert data["multiplier"] == "0"
    witness, _, _, data = _check_fact("fact_spinc_q", 3, default_ring(12))
    assert witness == ""
    assert data["multiplier"] != "0"


def test_registry_builds_no_inverse(monkeypatch):
    # the twisted classes multiply by the theta sum, not by phi^8 times a
    # character that was divided by phi^8; the uncached theta sum is built
    # afresh for each class
    calls = []

    def counting_inv(a):
        calls.append(a)
        return qs_inv(a)

    monkeypatch.setattr(thetamod, "qs_inv", counting_inv)
    monkeypatch.setattr(exactmath, "qs_inv", counting_inv)
    monkeypatch.setattr(anomaly, "_e8_theta_sum", anomaly._e8_theta_sum.__wrapped__)
    assert all(report.passed for report in run_registry(order=6))
    assert calls == []


def test_fact_checks_fail_when_the_theta_sum_is_off(monkeypatch):
    # negative control for the E8 factor: x * q added to the theta sum
    theta_sum = anomaly._e8_theta_sum

    def shifted(ring, order):
        return theta_sum(ring, order) + QExpSeries(ring, order, {GRID: ring.gen("x")})

    monkeypatch.setattr(anomaly, "_e8_theta_sum", shifted)
    for reg_id in FACT_IDS:
        report = verify_identity(reg_id, order=3)
        assert report.status == "fail", reg_id
        assert "not a multiple" in report.witness, reg_id


def test_fact_checks_fail_when_the_theta_sum_is_scaled(monkeypatch):
    # a scaled E8 factor keeps each class modular but scales its multiplier,
    # which the check pins to deg12(exp(K/24) W).  sqrt_relation still
    # passes: Rc^2 = Qc Wc holds for any E8 series, since Rc carries the
    # factor once and Qc twice.
    theta_sum = anomaly._e8_theta_sum
    monkeypatch.setattr(anomaly, "_e8_theta_sum", lambda ring, order: theta_sum(ring, order).scale(2))
    for reg_id in FACT_IDS:
        report = verify_identity(reg_id, order=3)
        assert report.status == "fail", reg_id
        assert "multiplier is not" in report.witness, reg_id
    assert verify_identity("sqrt_relation", order=3).passed


def test_fact_basis_rows_fix_the_q1_ratio():
    # match_modular_basis sets m = s0 and forces s1 = m * (basis q^1), so
    # once it passes the q^1/q^0 ratio of each fact_* class is the basis
    # row's: E14 = E4^2 E6 at weight 14 and E10 = E4 E6 at weight 10, the
    # 6 + 4k of k = 2 and k = 1 E8 copies
    copies = {anomaly._row(reg_id, anomaly._check_fact)[1] for reg_id in FACT_IDS}
    assert sorted(6 + 4 * k for k in copies) == [10, 14]
    assert [eisenstein(14, 1).coefficient(n) for n in (0, 1)] == [1, -24]
    assert [eisenstein(10, 1).coefficient(n) for n in (0, 1)] == [1, -264]


@pytest.mark.parametrize("name, keys", [("ThetaTwisted", ("T", "xi")), ("Phi", ("T",))])
def test_q1_coefficient_is_read_at_order_1(name, keys):
    # b1_check and d1_check expand at order 1: higher orders add only
    # higher powers of q
    bundles = display_bundles(default_ring())
    args = [bundles[key] for key in keys]
    assert witten_expand(name, args, 1)[Fraction(1)] == witten_expand(name, args, 8)[Fraction(1)]


#: Every id whose check is its sides builder, with the builder's name.
TWO_SIDED = [
    (reg_id, row[0].__name__)
    for reg_id, row in anomaly._REGISTRY.items()
    if row[0].__name__.endswith("_sides")
]


def _swap_sides(monkeypatch, reg_id, lhs, rhs):
    """Make the registry row of ``reg_id`` return the fixed sides."""
    row = anomaly._REGISTRY[reg_id]
    monkeypatch.setitem(anomaly._REGISTRY, reg_id, (lambda reg_id, order, ring: (lhs, rhs),) + row[1:])


def test_fifteen_ids_compare_two_sides():
    # six theorems, four degree-8 displays, two xi bundles, Rc^2 = Qc Wc
    # and the two q^1 bundles
    assert len(TWO_SIDED) == 15
    assert {sides for _, sides in TWO_SIDED} == {
        "theorem_sides", "deg8_display_sides", "bundle_xi_sides", "sqrt_sides", "q1_bundle_sides"
    }


@pytest.mark.parametrize("reg_id, sides", TWO_SIDED)
def test_check_fails_when_both_sides_are_zero(monkeypatch, reg_id, sides):
    assert verify_identity(reg_id, order=1).passed
    _, rhs = anomaly._REGISTRY[reg_id][0](reg_id, 1, default_ring())
    zero = rhs - rhs
    _swap_sides(monkeypatch, reg_id, zero, zero)
    report = verify_identity(reg_id, order=1)
    assert report.status == "fail"
    assert report.witness == "both sides are 0"


@pytest.mark.parametrize("reg_id, sides", TWO_SIDED)
def test_check_fails_when_the_rhs_is_shifted(monkeypatch, reg_id, sides):
    # RHS + x, or RHS + x q for the series id, leaves -x as the witness
    ring = default_ring()
    x = ring.gen("x")
    lhs, rhs = anomaly._REGISTRY[reg_id][0](reg_id, 1, ring)
    if isinstance(rhs, QExpSeries):
        shifted, witness = rhs + QExpSeries(ring, 1, {GRID: x}), "q^(1): -x"
    else:
        shifted, witness = rhs + x, "-x"
    _swap_sides(monkeypatch, reg_id, lhs, shifted)
    report = verify_identity(reg_id, order=1)
    assert report.status == "fail"
    assert report.witness == witness


def test_witness_of_polynomial_and_series_sides():
    ring = default_ring()
    x = ring.gen("x")
    assert anomaly._witness(x, x) == ""
    assert anomaly._witness(ring.zero(), ring.zero()) == "both sides are 0"
    assert anomaly._witness(2 * x, x) == str(x)
    zero = QExpSeries.zero(ring, 2)
    lhs = QExpSeries(ring, 2, {0: ring.one(), 12: x, 24: x * x})
    rhs = QExpSeries(ring, 2, {0: ring.one(), 24: x})
    assert anomaly._witness(lhs, lhs) == ""
    assert anomaly._witness(zero, zero) == "both sides are 0"
    # the sides first differ at q^(1/2), not at q^0 or q^1
    assert anomaly._witness(lhs, rhs) == "q^(1/2): %s" % x
    assert anomaly._witness(lhs, rhs).startswith("q^(1/2):")


def test_report_round_trip():
    report = verify_identity("bundle_xi_plus", order=1)
    clone = VerificationReport.from_dict(report.to_dict())
    assert clone == report
    assert clone.passed


# ----------------------------------------------------------------------
# the six main identities
# ----------------------------------------------------------------------


def test_theorem_sides_vanish():
    ring = default_ring()
    for reg_id in THEOREM_IDS:
        lhs, rhs = theorem_sides(reg_id, 1, ring)
        assert (lhs - rhs).is_zero(), reg_id
    with pytest.raises(ValueError):
        theorem_sides("sqrt_relation", 1, ring)


def test_side_builders_reject_ids_of_other_checks():
    ring = default_ring()
    with pytest.raises(ValueError):
        deg8_display_sides("wfh_main", 1, ring)
    with pytest.raises(ValueError):
        verify_differ("o1")
    with pytest.raises(ValueError):
        anomaly.q1_bundle_sides("fact_spinc_q", 1, ring)


def test_registry_weights_match_the_paper(monkeypatch):
    # every weight is derived from the base's w and c and from k; the
    # paper's literal weights must come out
    ring = default_ring()
    forms, bundles = _paper_forms(ring), _paper_bundles(ring)
    for reg_id in THEOREM_IDS:
        key, form_weight, index_weight = PAPER_WEIGHTS[reg_id]
        L, Q = forms[key]
        density = anomaly._weight_class(key[0], ring) * bundles[key]
        lhs, rhs = theorem_sides(reg_id, 1, ring)
        assert lhs == (L * Q * form_weight).homogeneous_part(12), reg_id
        assert rhs == (density * index_weight).homogeneous_part(12), reg_id
    for reg_id in DEG8_IDS:
        key, weight = PAPER_WEIGHTS[reg_id]
        assert deg8_display_sides(reg_id, 1, ring)[1] == forms[key][1] * weight, reg_id
    seen = []

    def recording(series, weight):
        seen.append(weight)
        return match_modular_basis(series, weight)

    monkeypatch.setattr(anomaly, "match_modular_basis", recording)
    for reg_id in FACT_IDS:
        assert verify_identity(reg_id, order=1).passed
        assert seen[-1] == PAPER_WEIGHTS[reg_id][1], reg_id
    checked = list(THEOREM_IDS) + list(DEG8_IDS) + FACT_IDS
    assert sorted(checked) == sorted(PAPER_WEIGHTS)


def _drop_c(poly):
    """Specialize the two-generator displays onto the c = 0 locus."""
    target = PolyRing({"P1": 4, "P2": 8, "P3": 12, "X": 4}, cap=12)
    g = target.gens()
    images = {
        "p1": g["P1"],
        "p2": g["P2"],
        "p3": g["P3"],
        "x": g["X"],
        "c": target.zero(),
    }
    return poly.substitute(images, target)


def test_twisted_identities_specialize_to_plain():
    # setting the degree-2 generator to zero halves each twisted display
    ring = default_ring()
    for twisted_id, plain_id in (("spinc_main", "wfh_main"), ("spinc_new", "spin_new")):
        t_lhs, t_rhs = theorem_sides(twisted_id, 1, ring)
        p_lhs, p_rhs = theorem_sides(plain_id, 1, ring)
        assert _drop_c(t_lhs) == 2 * _drop_c(p_lhs), twisted_id
        assert _drop_c(t_rhs) == 2 * _drop_c(p_rhs), twisted_id


# ----------------------------------------------------------------------
# the two rules: cubic forms and index bundles from (base, E8 copies)
# ----------------------------------------------------------------------


FORM_KEYS = [(base, k) for base in ("spin", "spinc", "orient") for k in (1, 2)]


@pytest.mark.parametrize("base, k", FORM_KEYS)
def test_cubic_form_matches_the_paper(base, k):
    ring = default_ring()
    assert cubic_form(base, k, ring) == _paper_forms(ring)[(base, k)]


def _paper_lam_p(ring):
    """(lam, p) of each base as the paper writes them: lam = K_0/2, half
    the untwisted prefactor exponent, and p the degree-8 class."""
    g = ring.gens()
    p1, p2, c = g["p1"], g["p2"], g["c"]
    lam = p1 * Fraction(1, 2)
    return {
        "spin": (lam, (p2 - lam * lam) * Fraction(1, 2)),
        "spinc": (
            (p1 - 3 * c * c) * Fraction(1, 2),
            (4 * p2 - p1 * p1 - 6 * p1 * c * c + 39 * c ** 4) * Fraction(1, 8),
        ),
        "orient": (-p1, 4 * p1 * p1 - 7 * p2),
    }


def _lattice_f(a, b, y):
    """f_{a,b}(y) = (a + y)^3 - b (a + y), as `cubiclattice._poly_f`."""
    z = a + y
    return z * z * z - b * z


def _lattice_f_tilde(a, b, y):
    """4(a + y)^3 - 6a(a + y)^2 - (b - 3a^2)(a + y), as
    `cubiclattice._poly_f_tilde`."""
    z = a + y
    return 4 * z * z * z - 6 * a * z * z - (b - 3 * a * a) * z


@pytest.mark.parametrize("base", ["spin", "spinc", "orient"])
def test_cubic_forms_are_the_lattice_cubics(base):
    # L Q with two E8 copies is the WFH cubic -f(2x) and with one copy the
    # new cubic -ftilde(x); L Q = (1 - k) lam (p - lam^2) - k (4x^3 + 6 lam
    # x^2 + 3 lam^2 x - p x) matches them for k^2 - 3k + 2 = 0 only
    ring = default_ring()
    x = ring.gen("x")
    lam, p = _paper_lam_p(ring)[base]
    wfh, new = -_lattice_f(lam, p, 2 * x), -_lattice_f_tilde(lam, p, x)
    products = {}
    for k in range(4):
        L, Q = cubic_form(base, k, ring)
        products[k] = L * Q
    assert products[2] == wfh
    assert products[1] == new
    for k in (0, 3):
        assert products[k] != wfh and products[k] != new, k


@pytest.mark.parametrize("base, k", FORM_KEYS)
def test_index_bundle_matches_the_paper(base, k):
    ring = default_ring()
    v = display_bundles(ring)["V"]
    bundle = anomaly._index_bundle(k, v, anomaly._q1_bundle(base, ring))
    assert bundle == _paper_bundles(ring)[(base, k)]
    assert bundle.constant_term() == 504


@pytest.mark.parametrize("k", [None, 1, 2])
def test_cosh_half_c_weight_matches_exp_half_c_in_degrees_8_and_12(k):
    # the spin^c displays carry Ahat exp(c/2); the registry uses the weight
    # Ahat cosh(c/2), which differs from it by the odd part sinh(c/2)
    ring = default_ring()
    bundle = ring.one() if k is None else _paper_bundles(ring)[("spinc", k)]
    ahat_exp = multiplicative_class("Ahat", 12, ring) * _exp_nilpotent(ring.gen("c") / 2)
    exp_side = ahat_exp * bundle
    cosh_side = anomaly._weight_class("spinc", ring) * bundle
    for degree in (8, 12):
        assert exp_side.homogeneous_part(degree) == cosh_side.homogeneous_part(degree)
    # control: the two weights do differ, in degree 10
    assert exp_side.homogeneous_part(10) != cosh_side.homogeneous_part(10)


# ----------------------------------------------------------------------
# twisted classes: routes, square relation, modular matching
# ----------------------------------------------------------------------


def test_two_routes_agree_for_every_kind():
    ring = default_ring()
    for kind in CLASS_KINDS:
        adams = build_twisted_class(kind, 2, ring, route="adams")
        theta = build_twisted_class(kind, 2, ring, route="theta")
        assert adams == theta, kind


def test_prefactor_exponent_pinned():
    # both routes share K, so the two-route test cannot see a wrong one
    ring = default_ring()
    g = ring.gens()
    p1, c, x = g["p1"], g["c"], g["x"]
    expected = {
        "W": p1,
        "Wc": p1 - 3 * c * c,
        "LWitten": -2 * p1,
        "Qc": p1 - 3 * c * c + 4 * x,
        "Rc": p1 - 3 * c * c + 2 * x,
        "QL": -2 * p1 + 4 * x,
        "RL": -2 * p1 + 2 * x,
    }
    got = {kind: anomaly._exponent(*anomaly._CLASS_TABLE[kind], ring) for kind in CLASS_KINDS}
    assert got == expected


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_twisted_class("nope", 2)
    with pytest.raises(ValueError):
        build_twisted_class("Wc", 2, route="numeric")


def test_square_relation():
    ring = default_ring()
    r_c = build_twisted_class("Rc", 3, ring)
    q_c = build_twisted_class("Qc", 3, ring)
    w_c = build_twisted_class("Wc", 3, ring)
    assert qs_mul(r_c, r_c) == qs_mul(q_c, w_c)


def _cosh_half(ring):
    c = ring.gen("c")
    out = ring.one()
    term = ring.one()
    for j in range(1, 4):
        term = term * c * c * Fraction(1, 4 * (2 * j) * (2 * j - 1))
        out = out + term
    return out


def _exp_over_24(k_poly):
    out = k_poly.ring.one()
    power = k_poly.ring.one()
    factorial = 1
    j = 0
    while True:
        j += 1
        power = power * k_poly
        if power.is_zero():
            return out
        factorial *= j
        out = out + power * Fraction(1, 24 ** j * factorial)


def _paper_exponent(base, k, ring):
    """K of the base twisted by k E8 copies, as the paper writes it."""
    g = ring.gens()
    p1, c, x = g["p1"], g["c"], g["x"]
    return {"spin": p1, "spinc": p1 - 3 * c * c, "orient": -2 * p1}[base] + 2 * k * x


def _split_sides(base, k, ring, ratio, rank=504, shift=None):
    """deg12 of [q^1] + ratio [q^0] of the base twisted by k copies, and the
    closed expression (W B)_12 - K brace_8 with B of rank ``rank``; with
    ``shift``, the E8 factor's q^1 and V carry it."""
    cls = anomaly._twisted_class(base, k, 1, ring, "adams")
    s12 = degree_part_series(cls, 12)
    combo = s12.coefficient(1) + ratio * s12.coefficient(0)

    if base == "orient":
        weight = multiplicative_class("Lhat", 12, ring)
    else:
        weight = multiplicative_class("Ahat", 12, ring)
        if base == "spinc":
            weight = weight * _cosh_half(ring)
    bundle = _paper_bundles(ring)[(base, k)] + (rank - 504)
    if shift is not None:
        bundle = bundle + k * shift
    K = _paper_exponent(base, k, ring)
    u = exp_minus_one_over(K)
    brace8 = (-(u * weight * bundle) + _exp_over_24(K) * weight).homogeneous_part(8)
    closed = (weight * bundle).homogeneous_part(12) - K * brace8
    return combo, closed


#: Minus the q^1 coefficient of the weight 6 + 4k basis row, by k.
SPLIT_RATIO = {2: 24, 1: 264}

#: Each (base, k), named by its class kind where it has one.
SPLIT_CASES = [
    pytest.param("spin", 2, id="spin-2"),
    pytest.param("spin", 1, id="spin-1"),
    pytest.param("spinc", 2, id="Qc"),
    pytest.param("spinc", 1, id="Rc"),
    pytest.param("orient", 2, id="QL"),
    pytest.param("orient", 1, id="RL"),
]


@pytest.mark.parametrize("base, k", SPLIT_CASES)
def test_split_defect_rearrangement(base, k):
    # the q^1 + ratio * q^0 combination of each class equals a closed
    # expression in the displayed bundle, independently of whether either
    # side vanishes; for the real E8 factor both vanish
    ring = default_ring()
    combo, closed = _split_sides(base, k, ring, SPLIT_RATIO[k])
    assert combo == closed
    assert combo.is_zero()


@pytest.mark.parametrize("base, k", SPLIT_CASES)
def test_split_defect_holds_for_a_shifted_e8_factor(monkeypatch, base, k):
    # shift the E8 factor's q^1 by x^3 and V to match: the combination no
    # longer vanishes, and the identity still holds, so it is not 0 = 0
    ring = default_ring()
    x3 = ring.gen("x") ** 3
    theta_sum = anomaly._e8_theta_sum

    def shifted(ring, order):
        return theta_sum(ring, order) + QExpSeries(ring, order, {GRID: x3})

    monkeypatch.setattr(anomaly, "_e8_theta_sum", shifted)
    combo, closed = _split_sides(base, k, ring, SPLIT_RATIO[k], shift=x3)
    assert not combo.is_zero()
    assert combo == closed


@pytest.mark.parametrize("base, k", SPLIT_CASES)
@pytest.mark.parametrize("ratio_step, rank", [(1, 504), (0, 505)])
def test_split_defect_fails_for_a_wrong_ratio_or_rank(base, k, ratio_step, rank):
    ring = default_ring()
    combo, closed = _split_sides(base, k, ring, SPLIT_RATIO[k] + ratio_step, rank=rank)
    assert combo != closed


@pytest.mark.parametrize("k", [1, 2])
def test_spin_classes_are_modular(k):
    # the spin base twisted by k copies is not a class kind, yet its
    # degree-12 part is a multiple of the weight-(6 + 4k) form, as for the
    # spin^c and orientable ones
    ring = default_ring()
    s12 = degree_part_series(anomaly._twisted_class("spin", k, 8, ring, "adams"), 12)
    m = match_modular_basis(s12, 6 + 4 * k)
    assert not m.is_zero()
    K = _paper_exponent("spin", k, ring)
    assert m == (multiplicative_class("Ahat", 12, ring) * _exp_over_24(K)).homogeneous_part(12)


@pytest.mark.parametrize("route", ["adams", "theta"])
def test_each_base_and_the_copy_prefactor_take_one_exp(monkeypatch, route):
    # one qs_exp per base factor F and one for exp(E2 x/12), however many
    # kinds share a base or carry copies
    anomaly._base_factor.cache_clear()
    anomaly._copy_prefactor.cache_clear()
    anomaly._class_product.cache_clear()
    anomaly._bracket_power.cache_clear()
    calls = []

    def counting_exp(a):
        calls.append(a)
        return exactmath.qs_exp(a)

    monkeypatch.setattr(charring, "qs_exp", counting_exp)
    ring = default_ring()
    for kind in CLASS_KINDS:
        build_twisted_class(kind, 4, ring, route)
    assert len(calls) == 4


def _clear_caches(*modules):
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_a_cold_registry_run_builds_each_shared_series_once(monkeypatch):
    # B and B^2 once per (ring, order), each twisted class once, so
    # sqrt_relation makes only its own two products.  The thetamod caches
    # are cleared as well; E10 and E14 are closed forms and make no product.
    calls = {"qs_exp": 0, "qs_mul": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(charring, "qs_exp", counting("qs_exp", exactmath.qs_exp))
    counted_mul = counting("qs_mul", exactmath.qs_mul)
    for module in (exactmath, anomaly, thetamod):
        monkeypatch.setattr(module, "qs_mul", counted_mul)
    _clear_caches(anomaly, thetamod)
    assert all(report.passed for report in run_registry(order=4))
    assert calls == {"qs_exp": 5, "qs_mul": 8}

    _clear_caches(anomaly, thetamod)
    run_registry(["fact_spinc_q", "fact_spinc_r"], order=4)
    calls.update(qs_exp=0, qs_mul=0)
    assert verify_identity("sqrt_relation", order=4).passed
    assert calls == {"qs_exp": 0, "qs_mul": 2}


def test_a_cold_registry_run_builds_each_polynomial_once(monkeypatch):
    # with every cache of the three layers cleared, each builder of (base,
    # k, ring) runs once: a multiplicative class for the three weight
    # classes and the boundary Ahat, and a line pair for cosh(c/2), xi and
    # the boundary normal bundle, where differ1 and differ2 used to build
    # their boundary pieces twice and the displays their xi five times
    calls = {"dot": 0, "multiplicative_class": 0, "line_pair_ch": 0}
    dot = PolyRing.dot

    def counted_dot(ring, pairs):
        calls["dot"] += 1
        return dot(ring, pairs)

    def counting(name):
        original = getattr(anomaly, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(PolyRing, "dot", counted_dot)
    for name in ("multiplicative_class", "line_pair_ch"):
        monkeypatch.setattr(anomaly, name, counting(name))
    _clear_caches(anomaly, charring, thetamod)
    assert all(report.passed for report in run_registry(order=4))
    assert calls == {"dot": 465, "multiplicative_class": 4, "line_pair_ch": 3}
    # a warm run builds no class and no line pair again
    calls.update(dot=0, multiplicative_class=0, line_pair_ch=0)
    assert all(report.passed for report in run_registry(order=4))
    assert (calls["multiplicative_class"], calls["line_pair_ch"]) == (0, 0)


def test_display_bundles_cannot_be_mutated():
    bundles = display_bundles(default_ring())
    with pytest.raises(TypeError):
        bundles["T"] = bundles["V"]
    with pytest.raises(TypeError):
        del bundles["xi"]
    assert display_bundles(default_ring()) is bundles


def test_witness_of_equal_sides_makes_no_subtraction(monkeypatch):
    ring = default_ring()
    series = build_twisted_class("Rc", 3, ring)
    twin = QExpSeries(ring, 3, dict(series.terms))
    poly, poly_twin = series.coefficient(1), series.coefficient(1) * 1

    def no_subtraction(self, other):
        raise AssertionError("equal sides were subtracted")

    monkeypatch.setattr(QExpSeries, "__sub__", no_subtraction)
    monkeypatch.setattr(charring.GradedPoly, "__sub__", no_subtraction)
    assert anomaly._witness(series, twin) == ""
    assert anomaly._witness(poly, poly_twin) == ""
    monkeypatch.undo()
    # a differing pair still gets its lowest-q witness
    x = ring.gen("x")
    off = series + QExpSeries(ring, 3, {GRID: 2 * x, 2 * GRID: x})
    assert anomaly._witness(off, series) == "q^(1): 2*x"
    assert anomaly._witness(series, off) == "q^(1): -2*x"


def test_the_class_memo_follows_the_e8_factor(monkeypatch):
    # warm classes built with the true E8 factor must not answer for a
    # replaced one, nor the replaced one's classes for the restored factor
    assert all(report.passed for report in run_registry(order=3))
    theta_sum = anomaly._e8_theta_sum
    monkeypatch.setattr(anomaly, "_e8_theta_sum", lambda ring, order: theta_sum(ring, order).scale(2))
    for reg_id in FACT_IDS:
        report = verify_identity(reg_id, order=3)
        assert report.status == "fail", reg_id
        assert "multiplier is not" in report.witness, reg_id
    monkeypatch.undo()
    assert all(verify_identity(reg_id, order=3).passed for reg_id in FACT_IDS)


# ----------------------------------------------------------------------
# closed forms of the base factor F and the bracket B
# ----------------------------------------------------------------------


def _divisor_sum(power, n):
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def _eisenstein_in(ring, weight, order):
    """E4 or E6 through q^order with constant coefficients in ``ring``."""
    front = {4: 240, 6: -504}[weight]
    tail = [ring.constant(front * _divisor_sum(weight - 1, n)) for n in range(1, order + 1)]
    return QExpSeries.from_q_coeffs(ring, order, [ring.one()] + tail)


def _e4_e6_shape(series):
    """b0 + b8 E4 + b12 E6, with b_d the degree-d part of the q^0
    coefficient of ``series``: the closed form of a base factor F."""
    ring, order = series.ring, series.order
    b = series.coefficient(0)
    return (
        QExpSeries(ring, order, {0: b.homogeneous_part(0)})
        + _eisenstein_in(ring, 4, order).scale(b.homogeneous_part(8))
        + _eisenstein_in(ring, 6, order).scale(b.homogeneous_part(12))
    )


def _bracket_closed_form(ring, order):
    """B = sum_{j<=3} (x/12)^j/j! E_{4+2j}, with E8 = E4^2 and E10 = E4 E6:
    the modified Taylor coefficients of the Jacobi Eisenstein series E_{4,1}
    (Eichler-Zagier, The Theory of Jacobi Forms, 1985, section 3)."""
    e4, e6 = _eisenstein_in(ring, 4, order), _eisenstein_in(ring, 6, order)
    y = ring.gen("x") / 12
    out = QExpSeries.zero(ring, order)
    for j, form in enumerate((e4, e6, qs_mul(e4, e4), qs_mul(e4, e6))):
        out = out + form.scale(y ** j / math.factorial(j))
    return out


def _e8_factor(ring, order, sigma_power=3, r_square=6):
    """1 + sum_n sigma(n) R(n x) q^n, with sigma the sum of the
    ``sigma_power``-th powers of the divisors and
    R(t) = 240 - 60 t + ``r_square`` t^2 - t^3/3."""
    x = ring.gen("x")

    def r(t):
        return 240 - 60 * t + r_square * t * t - t * t * t / 3

    tail = [r(x * n) * _divisor_sum(sigma_power, n) for n in range(1, order + 1)]
    return QExpSeries.from_q_coeffs(ring, order, [ring.one()] + tail)


@pytest.mark.parametrize("route", ["adams", "theta"])
@pytest.mark.parametrize("cap", [12, 15])
@pytest.mark.parametrize("base", ["spin", "spinc", "orient"])
def test_twisted_classes_are_f_times_b_to_the_k_in_closed_form(base, cap, route):
    # F = b0 + b8 E4 + b12 E6 and B = sum_j (x/12)^j/j! E_{4+2j}, so the
    # degree-12 part of F B^k is a form of weight 6 + 4k, where the space
    # is one-dimensional: the reason every fact_* id passes
    ring = default_ring(cap)
    order = 24
    F = anomaly._twisted_class(base, 0, order, ring, route)
    assert F == _e4_e6_shape(F)
    b = F.coefficient(0)
    assert b.constant_term() == (64 if base == "orient" else 1)
    assert not b.homogeneous_part(8).is_zero()
    assert not b.homogeneous_part(12).is_zero()
    B = _bracket_closed_form(ring, order)
    assert anomaly._twisted_class(base, 1, order, ring, route) == qs_mul(F, B)
    assert anomaly._twisted_class(base, 2, order, ring, route) == qs_mul(F, qs_mul(B, B))


@pytest.mark.parametrize("base", ["spin", "spinc", "orient"])
def test_base_factor_shape_fails_for_e2_over_12(base):
    # control: the prefactor exp(E2 K0/12) in place of exp(E2 K0/24)
    ring = default_ring()
    F = anomaly._twisted_class(base, 0, 8, ring, "adams")
    extra = exp_combination([(eisenstein(2, 8), _paper_exponent(base, 0, ring) / 24)], ring, 8)
    wrong = qs_mul(F, extra)
    assert wrong != _e4_e6_shape(wrong)


@pytest.mark.parametrize("sigma_power, r_square", [(3, 7), (1, 6)], ids=["R-6-to-7", "sigma3-to-sigma1"])
def test_bracket_closed_form_fails_for_a_wrong_e8_factor(monkeypatch, sigma_power, r_square):
    ring = default_ring()
    assert _e8_factor(ring, 8) == anomaly._e8_theta_sum(ring, 8)
    wrong = _e8_factor(ring, 8, sigma_power, r_square)
    monkeypatch.setattr(anomaly, "_e8_theta_sum", lambda ring, order: wrong)
    B = _bracket_closed_form(ring, 8)
    for base in ("spin", "spinc", "orient"):
        F = anomaly._twisted_class(base, 0, 8, ring, "adams")
        assert anomaly._twisted_class(base, 1, 8, ring, "adams") != qs_mul(F, B), base


def test_exp_minus_one_over():
    ring = default_ring()
    k = _paper_exponent("spinc", 1, ring)
    u = exp_minus_one_over(k)
    assert ring.one() + k * u == _exp_over_24(k)
    with pytest.raises(ValueError):
        exp_minus_one_over(ring.one())


# ----------------------------------------------------------------------
# display bundles
# ----------------------------------------------------------------------


def test_display_bundle_ranks_and_identities():
    ring = default_ring()
    b = display_bundles(ring)
    assert b["B1"].constant_term() == 0
    assert b["D1"].constant_term() == 0
    bundles = _paper_bundles(ring)
    for key, bundle in bundles.items():
        assert bundle.constant_term() == 504, key
    assert (bundles[("spinc", 2)] - (b["B1"] + 2 * b["V"] + 8)).is_zero()
    assert (bundles[("spinc", 1)] - (b["B1"] + b["V"] + 256)).is_zero()
    assert (bundles[("orient", 2)] - (b["D1"] + 2 * b["V"] + 8)).is_zero()
    assert (bundles[("orient", 1)] - (b["D1"] + b["V"] + 256)).is_zero()


# ----------------------------------------------------------------------
# residue-2 polynomial algebra
# ----------------------------------------------------------------------


def test_mod2_reduce_algebra():
    ring = PolyRing({"a": 2, "b": 4}, cap=18)
    g = ring.gens()
    a, b = g["a"], g["b"]
    w = MOD2_RING.gens()
    w2, w4 = w["w2"], w["w4"]
    images = {"a": w2, "b": w4}
    # 1 + 1 = 0
    assert mod2_reduce(ring.one() + ring.one(), images).is_zero()
    assert mod2_reduce(a + a, images).is_zero()
    assert mod2_reduce(a + b, images) == mod2_reduce(b + a, images) == w2 + w4
    # (a + b)^2 = a^2 + b^2 mod 2
    assert mod2_reduce((a + b) ** 2, images) == mod2_reduce(a * a + b * b, images)
    assert mod2_reduce((a + b) ** 2, images) == w2 * w2 + w4 * w4
    assert mod2_reduce(a ** 3, images) == w2 * w2 * w2
    # degree cap 16: w2^8 survives, w2^9 (degree 18) truncates to zero
    assert mod2_reduce(a ** 8, images) == w2 ** 8
    assert mod2_reduce(a ** 9, images).is_zero()
    # a fraction is rejected even where the cap drops its image
    with pytest.raises(ValueError):
        mod2_reduce(a ** 9 / 2, images)
    assert str(mod2_reduce(ring.zero(), images)) == "0"
    assert str(mod2_reduce(b * b + a ** 4, images)) == "w4^2 + w2^4"


def test_mod2_reduce():
    ring = PolyRing({"a": 4, "b": 8}, cap=16)
    g = ring.gens()
    a, b = g["a"], g["b"]
    w = MOD2_RING.gens()
    w4, w8 = w["w4"], w["w8"]
    images = {"a": w4, "b": w8}
    assert mod2_reduce(3 * a * a + 2 * b + b, images) == w4 * w4 + w8
    assert mod2_reduce(4 * a, images).is_zero()
    with pytest.raises(ValueError):
        mod2_reduce(a * Fraction(1, 2), images)
    with pytest.raises(UnsupportedGenerator):
        mod2_reduce(a + b, {"a": w4})
    with pytest.raises(ValueError):
        mod2_reduce(a, {"a": w4 / 2})


def test_pc_report_data():
    report = verify_identity("pc_theorem")
    assert report.passed
    assert report.data["mod2_p_c"] == "w8"
    assert report.data["mod2_pt_c"] == "w8 + w4^2 + w2^4"
    assert report.data["mod2_lam_c"] == "w4 + w2^2"


def test_orientable_report_records_assumption():
    report = verify_identity("mod2_orientable")
    assert report.passed
    assert len(report.assumptions) == 1
    assert report.data["mod2_4p1^2-7p2"] == "w4^2"
    assert report.data["mod2_p1^2-7p2"] == "w4^2 + w2^4"


@pytest.mark.parametrize("reg_id", ["pc_theorem", "mod2_orientable"])
def test_residue_check_fails_when_residues_are_zero(monkeypatch, reg_id):
    assert verify_identity(reg_id).passed
    monkeypatch.setattr(anomaly, "mod2_reduce", lambda poly, images: 0)
    report = verify_identity(reg_id)
    assert report.status == "fail"
    assert "mod-2 residue" in report.witness


# ----------------------------------------------------------------------
# boundary restriction and the two comparisons
# ----------------------------------------------------------------------


def test_restrict_to_u_images():
    ring = default_ring()
    g = ring.gens()
    ru = boundary_ring()
    gu = ru.gens()
    tp1, e = gu["tP1"], gu["e"]
    assert restrict_to_u(g["p1"] ** 2, ru) == (tp1 + e * e) ** 2
    assert restrict_to_u(g["c"] * g["x"], ru) == gu["e"] * gu["tx"]
    with pytest.raises(UnsupportedGenerator):
        restrict_to_u(g["p3"], ru)


def _quadratic(which, C, p1, p2, c):
    if which == "differ1":
        return (
            24 * C * C
            - (4 * p1 + 10 * c * c) * C
            + p1 * p1 - 4 * p2 + 6 * p1 * c * c - 21 * c ** 4
        )
    return (
        48 * C * C
        - (28 * p1 + 10 * c * c) * C
        + 7 * p1 * p1 - 4 * p2 + 6 * p1 * c * c - 21 * c ** 4
    )


#: Each comparison as its number of E8 copies.
DIFFER_COPIES = {"differ1": 2, "differ2": 1}


def _paper_gamma(which, ring):
    """The spin^c cubic form minus the spin one, over 12, from the paper's
    literal forms."""
    forms = _paper_forms(ring)
    k = DIFFER_COPIES[which]
    (l_c, q_c), (l, q) = forms[("spinc", k)], forms[("spin", k)]
    return (l_c * q_c - l * q) / 12


@pytest.mark.parametrize("which", ["differ1", "differ2"])
def test_differ_exact_form(which):
    # recompute the comparison from the published building blocks
    ring = default_ring()
    g = ring.gens()
    p1, p2, c = g["p1"], g["p2"], g["c"]
    gamma = _paper_gamma(which, ring)
    C = _paper_forms(ring)[("spin", DIFFER_COPIES[which])][0]
    delta = gamma.divide_by_gen("c")
    assert delta * c == gamma
    assert delta == c * _quadratic(which, C, p1, p2, c) / 64


DIFFER_RESIDUALS = {
    # reading label -> residual as (e^5, tx*e^3, tP1*e^3) coefficients
    "differ1": {
        "intrinsic p, restricted C": (Fraction(5, 64), Fraction(-1, 8), Fraction(-1, 16)),
        "intrinsic p and C": (Fraction(3, 32), Fraction(5, 8), Fraction(3, 32)),
    },
    "differ2": {
        "intrinsic p, restricted C": (Fraction(-1, 64), Fraction(-7, 16), Fraction(-1, 16)),
        "intrinsic p and C": (Fraction(3, 32), Fraction(5, 16), Fraction(3, 32)),
    },
}


@pytest.mark.parametrize("which", ["differ1", "differ2"])
def test_differ_alternate_readings(which):
    # the naive readings of the displayed form do NOT match the restriction;
    # the residuals are reported as findings, and their exact values are
    # pinned here
    witness, findings, data = verify_differ(which)
    assert witness == ""
    assert len(findings) == 2

    gamma = _paper_gamma(which, default_ring())
    ru = boundary_ring()
    gu = ru.gens()
    tp1, tp2, tx, e = gu["tP1"], gu["tP2"], gu["tx"], gu["e"]
    lhs_u = restrict_to_u(gamma.divide_by_gen("c"), ru)

    shift = DIFFER_COPIES[which] * tx
    readings = {
        "intrinsic p, restricted C": (tp1 + e * e) / 2 + shift,
        "intrinsic p and C": tp1 / 2 + shift,
    }
    for label, c_img in readings.items():
        residual = lhs_u - e * _quadratic(which, c_img, tp1, tp2, e) / 64
        a5, a_tx, a_tp1 = DIFFER_RESIDUALS[which][label]
        expected = a5 * e ** 5 + a_tx * tx * e ** 3 + a_tp1 * tp1 * e ** 3
        assert residual == expected, (which, label)
        assert any(str(residual) in f for f in findings), (which, label)


@pytest.mark.parametrize("which", ["differ1", "differ2"])
def test_differ_fails_when_both_sides_are_zero(monkeypatch, which):
    assert verify_identity(which).passed
    monkeypatch.setattr(anomaly, "_differ_gamma", lambda which, ring: ring.zero())
    monkeypatch.setattr(anomaly, "_differ_quadratic", lambda which, C, p1, p2, c: 0 * c)
    report = verify_identity(which)
    assert report.status == "fail"
    assert report.witness == "both sides are 0"


@pytest.mark.parametrize("which", ["differ1", "differ2"])
def test_differ_fails_when_gamma_has_a_c_free_term(monkeypatch, which):
    honest = anomaly._differ_gamma
    monkeypatch.setattr(anomaly, "_differ_gamma",
                        lambda which, ring: honest(which, ring) + ring.gen("p1") ** 3)
    report = verify_identity(which)
    assert report.status == "fail"
    assert report.witness == "not divisible by c^2: polynomial is not divisible by c"


def _tanh_coefficients(count):
    """Taylor coefficients t_0..t_{count-1} of tanh, from
    sinh = tanh cosh by long division of the Fraction series."""
    sinh = [Fraction(n % 2, math.factorial(n)) for n in range(count)]
    cosh = [Fraction(1 - n % 2, math.factorial(n)) for n in range(count)]
    out = []
    for n in range(count):
        out.append(sinh[n] - sum(cosh[j] * out[n - j] for j in range(1, n + 1)))
    return out


@pytest.mark.parametrize("which", ["differ1", "differ2"])
def test_boundary_tanh_term_uses_tanh_of_e_over_4(which):
    # (1/2) Ahat(T_U) ch(bundle) tanh(e/4) in degree 10, with tanh from its
    # own series and the bundles as the docstring names them
    ru = boundary_ring()
    g = ru.gens()
    e = g["e"]
    names = ("tP1", "tP2")
    ahat = multiplicative_class("Ahat", 10, ru, pontryagin_names=names)
    t_u_plus_n = ch_tangent(10, ru, pontryagin_names=names) + line_pair_ch(e)
    i_v = e8_ch(g["tx"])
    bundle = {"differ1": 2 * i_v + t_u_plus_n - 4, "differ2": i_v + t_u_plus_n + 244}[which]

    def term(tanh):
        return ((ahat * bundle * tanh) / 2).homogeneous_part(10)

    tanh = sum((t * (e / 4) ** n for n, t in enumerate(_tanh_coefficients(6))), ru.zero())
    assert boundary_tanh_term(which, ru) == term(tanh)
    # control: e^3/96 in place of e^3/192
    assert term(tanh - e ** 3 / 192) != term(tanh)


def test_differ_data_fields():
    witness, findings, data = verify_differ("differ1")
    assert witness == ""
    assert data["restricted_form"]
    assert data["tanh_term_deg10"]
    ru = boundary_ring()
    assert str(boundary_tanh_term("differ1", ru)) == data["tanh_term_deg10"]
    with pytest.raises(ValueError):
        verify_differ("differ3")
