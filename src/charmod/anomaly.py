"""Verification registry for the degree-12 identity family.

Each registry entry states one exact identity — a polynomial identity among
graded generators, a q-series factorization through a one-dimensional space
of modular forms, a bundle identity at the character level, a residue
congruence, or a boundary-restriction comparison — and verifies it by exact
arithmetic, returning a `VerificationReport`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactmath import GRID, QExpSeries, _exp_nilpotent, qs_exp, qs_mul
from .charring import (
    ArgumentError,
    PolyRing,
    _accumulate,
    _poly,
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
)
from .thetamod import (
    NotProportional,
    e8_character,
    eisenstein,
    match_modular_basis,
    phi,
    series_in_ring,
    theta_log_ratio,
)


class UnsupportedGenerator(ValueError):
    """A polynomial mentions a generator with no boundary-restriction image."""


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one registry check.

    ``witness`` renders the first discrepancy and stays empty on a pass.
    ``findings`` carry observations that do not decide the status (for
    example alternate-reading residuals); ``assumptions`` record inputs
    taken on trust; ``data`` holds auxiliary exact values as strings.
    """

    id: str
    status: str
    witness: str = ""
    order: int = 0
    cap: int = 12
    millis: float = 0.0
    findings: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


# ----------------------------------------------------------------------
# residues mod 2
# ----------------------------------------------------------------------

#: Residues mod 2 are polynomials in the w-generators, truncated at degree 16.
MOD2_RING = PolyRing({"w2": 2, "w4": 4, "w6": 6, "w8": 8}, cap=16)


def _substitute(poly, images, target):
    """``poly.substitute(images, target)``, raising UnsupportedGenerator for
    a generator with no image."""
    try:
        return poly.substitute(images, target)
    except ValueError as exc:
        raise UnsupportedGenerator(str(exc)) from None


def mod2_reduce(poly, images):
    """Reduce an integer-coefficient polynomial mod 2 under generator images.

    ``images`` maps every generator appearing in ``poly`` to an element of
    MOD2_RING with integer coefficients.  Reduction mod 2 is a ring map, so
    it is applied once, to the numerators of the substituted polynomial.
    Fractional coefficients are rejected.
    """
    if poly.den != 1:
        raise ValueError("%s has a non-integer coefficient" % poly)
    image = _substitute(poly, images, MOD2_RING)
    if image.den != 1:
        raise ValueError("residue images must have integer coefficients")
    return _poly(MOD2_RING, 1, {k: n % 2 for k, n in image.nums.items()})


# ----------------------------------------------------------------------
# shared builders over the default ring
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tangent(ring):
    return ch_tangent(12, ring)


@lru_cache(maxsize=None)
def _exp_half_c(ring):
    return _exp_nilpotent(ring.gen("c") * Fraction(1, 2))


@lru_cache(maxsize=None)
def _e8_bundle(ring):
    return e8_ch(ring.gen("x"))


@lru_cache(maxsize=None)
def _e8_char_series(ring, order):
    """Full character q-series of the calibrated rank-248 bundle."""
    g = calibrate_e8_roots(ring.gen("x"))
    return e8_character(g, order)


def derived_classes(ring):
    """The quadratic-form building blocks in the default generators."""
    g = ring.gens()
    p1, p2, c, x = g["p1"], g["p2"], g["c"], g["x"]
    lam = p1 * Fraction(1, 2)
    p = (p2 - lam * lam) * Fraction(1, 2)
    lam_c = (p1 - 3 * c * c) * Fraction(1, 2)
    p_c = (4 * p2 - p1 * p1 - 6 * p1 * c * c + 39 * c ** 4) * Fraction(1, 8)
    out = {
        "lam": lam,
        "p": p,
        "pt": p - 3 * lam * lam,
        "lam_c": lam_c,
        "p_c": p_c,
        "pt_c": p_c - 3 * lam_c * lam_c,
        "C": lam + 2 * x,
        "Ct": lam + x,
        "C_c": lam_c + 2 * x,
        "Ct_c": lam_c + x,
        "D": -p1 + 2 * x,
        "Dt": -p1 + x,
    }
    return out


# ----------------------------------------------------------------------
# twisted-class builders
# ----------------------------------------------------------------------

#: The three bases of the paper's generalized Witten classes: spin,
#: spin^c and orientable manifolds.  Each maps to the p1 and c^2
#: coefficients of its prefactor exponent K, the twist spec of its Witten
#: series (spin^c twists by the line pair xi of c), and the multiplicative
#: class of its weight (times cosh(c/2) for spin^c).
_BASES = {
    "spin": ((1, 0), "Theta", "Ahat"),
    "spinc": ((1, -3), "ThetaTwisted", "Ahat"),
    "orient": ((-2, 0), "Phi", "Lhat"),
}

#: Each class kind as (base, copies): the generalized Witten class of the
#: base twisted by 0, 1 or 2 copies of the character of the basic
#: representation of affine E8.
_CLASS_TABLE = {
    "W": ("spin", 0),
    "Wc": ("spinc", 0),
    "LWitten": ("orient", 0),
    "Qc": ("spinc", 2),
    "Rc": ("spinc", 1),
    "QL": ("orient", 2),
    "RL": ("orient", 1),
}

CLASS_KINDS = tuple(_CLASS_TABLE)


def prefactor_exponent(kind, ring):
    """Polynomial K in the exponential prefactor exp((1/24) E2 K) of a class:
    the base's multiple of p1 and c^2, plus 2x for each E8 copy."""
    if kind not in _CLASS_TABLE:
        raise ValueError("unknown class kind %r" % (kind,))
    base, copies = _CLASS_TABLE[kind]
    (a_p1, a_c2), _, _ = _BASES[base]
    g = ring.gens()
    return a_p1 * g["p1"] + a_c2 * g["c"] * g["c"] + 2 * copies * g["x"]


def _prefactor_series(kind, order, ring):
    exponent_poly = prefactor_exponent(kind, ring) * Fraction(1, 24)
    e2 = eisenstein(2, order)
    terms = {k: exponent_poly * coeff for k, coeff in e2.terms.items()}
    return qs_exp(QExpSeries(ring, order, terms))


@lru_cache(maxsize=None)
def _weight_class(base, ring):
    """Ahat, Ahat cosh(c/2) or Lhat: the weight of a base's Witten series."""
    weight = multiplicative_class(_BASES[base][2], 12, ring)
    if base == "spinc":
        weight = weight * line_pair_ch(ring.gen("c") * Fraction(1, 2)) * Fraction(1, 2)
    return weight


@lru_cache(maxsize=None)
def _witten_series(base, ring, order):
    """The Witten series of a base, over the tangent character (and xi)."""
    inputs = [_tangent(ring)]
    if base == "spinc":
        inputs.append(line_pair_ch(ring.gen("c")))
    return witten_character(_BASES[base][1], inputs, order)


def _core_theta(base, order, ring):
    """The weighted Witten series of a base from the theta log-ratios."""
    g = ring.gens()
    sums = power_sums_from_pontryagin([g["p1"], g["p2"], g["p3"]], 3)
    log_terms = {}

    def add(series, poly):
        for grid_key, coeff in series.terms.items():
            _accumulate(log_terms, grid_key, poly * coeff)

    tangent_kind = "lhat" if base == "orient" else "theta"
    for c_k, pi_k in zip(theta_log_ratio(tangent_kind, order), sums):
        add(c_k, pi_k)
    if base == "spinc":
        for kind_name in ("theta1", "theta2", "theta3"):
            for i, c_k in enumerate(theta_log_ratio(kind_name, order)):
                add(c_k, g["c"] ** (2 * (i + 1)))

    out = qs_exp(QExpSeries(ring, order, log_terms))
    # the per-root constant 2 of the Lhat root function, over six roots
    return out.scale(64) if base == "orient" else out


def build_twisted_class(kind, order, ring=None, route="adams"):
    """Assemble one of the q-expanded characteristic classes.

    ``route`` picks the Adams-operation expansion ("adams") or the
    theta-ratio expansion ("theta"); both must agree.
    """
    if kind not in _CLASS_TABLE:
        raise ValueError("unknown class kind %r" % (kind,))
    if route not in ("adams", "theta"):
        raise ValueError("unknown route %r" % (route,))
    ring = ring or default_ring()
    order = int(order)
    base, copies = _CLASS_TABLE[kind]

    if route == "adams":
        core = _witten_series(base, ring, order).scale(_weight_class(base, ring))
    else:
        core = _core_theta(base, order, ring)
    out = qs_mul(_prefactor_series(kind, order, ring), core)
    if copies:
        chv = _e8_char_series(ring, order)
        tail = qs_mul(series_in_ring(phi(order) ** (8 * copies), ring), chv ** copies)
        out = qs_mul(out, tail)
    return out


def degree_part_series(series, degree):
    """Take the homogeneous part of every q-coefficient."""
    terms = {}
    for grid_key, poly in series.terms.items():
        part = poly.homogeneous_part(degree)
        if not part.is_zero():
            terms[grid_key] = part
    return QExpSeries(series.ring, series.order, terms)


# ----------------------------------------------------------------------
# bundle combinations appearing in the factorization displays
# ----------------------------------------------------------------------


def display_bundles(ring):
    """Characters of the virtual bundles named by the degree-8
    factorization displays."""
    T = _tangent(ring)
    V = _e8_bundle(ring)
    xi = line_pair_ch(ring.gen("c"))
    xi_t = xi - 2
    lam2, sym2 = vb_lambda2_sym2(T)
    B1 = T - 12 - 3 * xi_t - xi_t * xi_t
    D1 = 2 * T + lam2 - sym2 - 12
    return {
        "T": T,
        "V": V,
        "xi": xi,
        "xi_t": xi_t,
        "lam2": lam2,
        "sym2": sym2,
        "B1": B1,
        "D1": D1,
        "frakA": 2 * V + T - 4 - 3 * xi_t - xi_t * xi_t,
        "frakB": V + T + 244 - 3 * xi_t - xi_t * xi_t,
        "frakC": 2 * V + 2 * T + lam2 - sym2 - 4,
        "frakD": V + 2 * T + lam2 - sym2 + 244,
    }


def exp_minus_one_over(k_poly):
    """(exp(K/24) - 1)/K as a polynomial: sum_{j>=1} K^{j-1}/(24^j j!).

    K must have no constant term, so the sum terminates in the capped ring.
    """
    if k_poly.constant_term() != 0:
        raise ValueError("K must have zero constant term")
    out = k_poly.ring.zero()
    power = k_poly.ring.one()
    factorial = 1
    j = 1
    while not power.is_zero():
        factorial *= j
        out = out + power * Fraction(1, 24 ** j * factorial)
        power = power * k_poly
        j += 1
    return out


DEG8_SETTINGS = {
    # id: (K kind, bundle key)
    "deg8_spinc_q": ("Qc", "frakA"),
    "deg8_spinc_r": ("Rc", "frakB"),
    "deg8_orient_q": ("QL", "frakC"),
    "deg8_orient_r": ("RL", "frakD"),
}


def deg8_display_sides(reg_id, ring):
    """LHS (brace degree-8 part) and RHS (closed quadratic form) of one display."""
    kind, bundle_key = DEG8_SETTINGS[reg_id]
    K = prefactor_exponent(kind, ring)
    bundle = display_bundles(ring)[bundle_key]
    if _CLASS_TABLE[kind][0] == "spinc":
        weight_class = _weight_class("spin", ring) * _exp_half_c(ring)
    else:
        weight_class = _weight_class("orient", ring)
    u = exp_minus_one_over(K)
    exp_k = _exp_nilpotent(K * Fraction(1, 24))
    brace = -(u * weight_class * bundle) + exp_k * weight_class
    lhs = brace.homogeneous_part(8)

    d = derived_classes(ring)
    g = ring.gens()
    p1, p2 = g["p1"], g["p2"]
    if reg_id == "deg8_spinc_q":
        rhs = (d["p_c"] - d["C_c"] * d["C_c"]) * Fraction(1, 24)
    elif reg_id == "deg8_spinc_r":
        rhs = (d["pt_c"] + 6 * d["lam_c"] * d["Ct_c"] - 4 * d["Ct_c"] * d["Ct_c"]) * Fraction(1, 24)
    elif reg_id == "deg8_orient_q":
        rhs = (4 * p1 * p1 - 7 * p2 - d["D"] * d["D"]) * Fraction(8, 3)
    else:
        rhs = (p1 * p1 - 7 * p2 - 6 * p1 * d["Dt"] - 4 * d["Dt"] * d["Dt"]) * Fraction(8, 3)
    return lhs, rhs


# ----------------------------------------------------------------------
# boundary restriction (codimension-2 comparison)
# ----------------------------------------------------------------------

U_GENERATORS = {"tP1": 4, "tP2": 8, "tx": 4, "e": 2}


def boundary_ring(cap=10):
    return PolyRing(U_GENERATORS, cap=cap)


def restrict_to_u(poly, target=None):
    """Restriction along the inclusion of the codimension-2 submanifold.

    Sends p1 -> tP1 + e^2, p2 -> tP2 + tP1 e^2, c -> e, x -> tx; a p3-term
    has no image on the ten-dimensional side and raises UnsupportedGenerator.
    """
    target = target or boundary_ring()
    g = target.gens()
    images = {
        "p1": g["tP1"] + g["e"] * g["e"],
        "p2": g["tP2"] + g["tP1"] * g["e"] * g["e"],
        "c": g["e"],
        "x": g["tx"],
    }
    return _substitute(poly, images, target)


DIFFER_SETTINGS = {
    # id: key of the untwisted C-symbol in derived_classes
    "differ1": "C",
    "differ2": "Ct",
}


def _differ_gamma(which, ring):
    """Difference of the two quadratic-form displays, one twisted by c."""
    d = derived_classes(ring)
    if which == "differ1":
        twisted = d["C_c"] * (d["p_c"] - d["C_c"] ** 2)
        plain = d["C"] * (d["p"] - d["C"] ** 2)
    else:
        twisted = d["Ct_c"] * (d["pt_c"] + 6 * d["lam_c"] * d["Ct_c"] - 4 * d["Ct_c"] ** 2)
        plain = d["Ct"] * (d["pt"] + 6 * d["lam"] * d["Ct"] - 4 * d["Ct"] ** 2)
    return (twisted - plain) / 12


def _differ_quadratic(which, C, p1, p2, c):
    """The displayed quadratic form Q with gamma = c^2 Q / 64."""
    if which == "differ1":
        return (
            24 * C * C
            - (4 * p1 + 10 * c * c) * C
            + p1 * p1
            - 4 * p2
            + 6 * p1 * c * c
            - 21 * c ** 4
        )
    return (
        48 * C * C
        - (28 * p1 + 10 * c * c) * C
        + 7 * p1 * p1
        - 4 * p2
        + 6 * p1 * c * c
        - 21 * c ** 4
    )


def boundary_tanh_term(which, target=None):
    """Degree-10 boundary correction term carried by the comparison.

    (1/2) Ahat(T_U) ch(bundle) tanh(e/4) with the bundle 2 i*V + T_U|_C + N - 4
    for differ1 and i*V + T_U|_C + N + 244 for differ2.
    """
    ru = target or boundary_ring()
    names = ("tP1", "tP2")
    ahat = multiplicative_class("Ahat", 10, ru, pontryagin_names=names)
    tangent = ch_tangent(10, ru, pontryagin_names=names)
    normal = line_pair_ch(ru.gen("e"))
    i_v = e8_ch(ru.gen("tx"))
    if which == "differ1":
        bundle = 2 * i_v + tangent + normal - 4
    else:
        bundle = i_v + tangent + normal + 244
    e = ru.gen("e")
    tanh = e / 4 - e ** 3 / 192 + e ** 5 / 7680
    return ((ahat * bundle * tanh) / 2).homogeneous_part(10)


def verify_differ(which, cap=12):
    """Check one boundary comparison: c^2-divisibility and the exact closed
    quadratic form.  The form restricted to the boundary goes into the data,
    and the residuals of the two alternate symbol readings into the
    findings."""
    if which not in DIFFER_SETTINGS:
        raise ValueError("unknown comparison %r" % (which,))
    c_key = DIFFER_SETTINGS[which]
    ring = default_ring(cap)
    g = ring.gens()
    p1, p2, c = g["p1"], g["p2"], g["c"]
    d = derived_classes(ring)

    gamma = _differ_gamma(which, ring)
    try:
        delta = gamma.divide_by_gen("c")
        delta.divide_by_gen("c")
    except ValueError as exc:
        return "not divisible by c^2: %s" % exc, [], {}

    expected = c * _differ_quadratic(which, d[c_key], p1, p2, c) / 64
    witness = _sides_witness(
        lambda diff: _poly_witness(diff) and "closed form mismatch: %s" % diff, delta, expected
    )

    ru = boundary_ring()
    lhs_u = restrict_to_u(delta, ru)

    # Alternate readings of the displayed form, where the p- and C-symbols
    # are taken on the ten-dimensional side instead of restricted.
    gu = ru.gens()
    tp1, tp2, tx, e = gu["tP1"], gu["tP2"], gu["tx"], gu["e"]
    shift = 2 * tx if which == "differ1" else tx
    readings = {
        "intrinsic p, restricted C": (tp1 + e * e) / 2 + shift,
        "intrinsic p and C": tp1 / 2 + shift,
    }
    findings = []
    for label, c_img in readings.items():
        q_u = _differ_quadratic(which, c_img, tp1, tp2, e)
        residual = lhs_u - e * q_u / 64
        if not residual.is_zero():
            findings.append("reading [%s] leaves residual %s" % (label, residual))

    data = {
        "restricted_form": str(lhs_u),
        "tanh_term_deg10": str(boundary_tanh_term(which, ru)),
    }
    return witness, findings, data


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_FACT_SETTINGS = {
    "fact_spinc_q": ("Qc", 14),
    "fact_spinc_r": ("Rc", 10),
    "fact_orient_q": ("QL", 14),
    "fact_orient_r": ("RL", 10),
}


def _poly_witness(diff):
    return "" if diff.is_zero() else str(diff)


def _series_witness(diff):
    if diff.is_zero():
        return ""
    grid_key = min(k for k, v in diff.terms.items() if not v.is_zero())
    return "q^(%s): %s" % (Fraction(grid_key, GRID), diff.terms[grid_key])


def _sides_witness(witness_of, lhs, rhs):
    """``witness_of(lhs - rhs)``, or a failure when both sides are 0: an
    identity that holds as 0 = 0 has checked nothing."""
    if lhs.is_zero() and rhs.is_zero():
        return "both sides are 0"
    return witness_of(lhs - rhs)


def theorem_sides(reg_id, ring):
    """LHS quadratic-form display and RHS index display of a main identity."""
    d = derived_classes(ring)
    g = ring.gens()
    p1, p2 = g["p1"], g["p2"]
    ahat, lhat = _weight_class("spin", ring), _weight_class("orient", ring)
    ch_t = _tangent(ring)
    ch_v = _e8_bundle(ring)
    ch_xi = line_pair_ch(g["c"])
    half_c = _exp_half_c(ring)

    if reg_id == "wfh_main":
        lhs = d["C"] * (d["p"] - d["C"] ** 2) / 48
        rhs = ahat * (ch_v / 2 + ch_t / 4 - 1)
    elif reg_id == "spin_new":
        lhs = d["Ct"] * (d["pt"] + 6 * d["lam"] * d["Ct"] - 4 * d["Ct"] ** 2) / 24
        rhs = ahat * (ch_v / 2 + ch_t / 2 + 122)
    elif reg_id == "spinc_main":
        lhs = d["C_c"] * (d["p_c"] - d["C_c"] ** 2) / 24
        rhs = ahat * half_c * (ch_v + ch_t / 2 - (ch_xi * ch_xi - ch_xi + 2) / 2)
    elif reg_id == "spinc_new":
        lhs = d["Ct_c"] * (d["pt_c"] + 6 * d["lam_c"] * d["Ct_c"] - 4 * d["Ct_c"] ** 2) / 12
        rhs = ahat * half_c * (ch_v + ch_t + (-(ch_xi * ch_xi) + ch_xi + 246))
    elif reg_id == "o1":
        ch_diff = -vb_adams(_tangent(ring), 2)
        lhs = d["D"] * (4 * p1 * p1 - 7 * p2 - d["D"] ** 2) / 6
        rhs = lhat * (2 * ch_v + 2 * ch_t + ch_diff - 4) / 32
    elif reg_id == "o2":
        ch_diff = -vb_adams(_tangent(ring), 2)
        lhs = d["Dt"] * (p1 * p1 - 7 * p2 - 6 * p1 * d["Dt"] - 4 * d["Dt"] ** 2) / 3
        rhs = lhat * (ch_v + 2 * ch_t + ch_diff + 244) / 16
    else:
        raise ValueError("unknown identity %r" % (reg_id,))
    return lhs.homogeneous_part(12), rhs.homogeneous_part(12)


def _check_theorem(reg_id, order, cap):
    ring = default_ring(cap)
    lhs, rhs = theorem_sides(reg_id, ring)
    return _sides_witness(_poly_witness, lhs, rhs), [], [], {}


def _check_fact(reg_id, order, cap):
    kind, weight = _FACT_SETTINGS[reg_id]
    ring = default_ring(cap)
    cls = build_twisted_class(kind, order, ring)
    s12 = degree_part_series(cls, 12)
    try:
        m = match_modular_basis(s12, weight)
    except NotProportional as exc:
        return (
            "degree-12 part is not a multiple of the weight-%d form at q^(%s): %s"
            % (weight, exc.order, exc.difference),
            [],
            [],
            {},
        )
    if m == 0:
        return "degree-12 part vanishes (multiplier 0)", [], [], {"multiplier": "0"}
    return "", [], [], {"multiplier": str(m)}


def _check_deg8(reg_id, order, cap):
    ring = default_ring(cap)
    lhs, rhs = deg8_display_sides(reg_id, ring)
    return _sides_witness(_poly_witness, lhs, rhs), [], [], {}


def bundle_xi_sides(reg_id, ring):
    """Characters of the reduced-bundle form (LHS) and the xi form (RHS) of
    one bundle identity."""
    b = display_bundles(ring)
    xi, xi_t = b["xi"], b["xi_t"]
    if reg_id == "bundle_xi_plus":
        lhs, rhs = 4 + 3 * xi_t + xi_t * xi_t, xi * xi - xi + 2
    else:
        lhs, rhs = 244 - 3 * xi_t - xi_t * xi_t, 246 - xi * xi + xi
    return lhs, rhs


def _check_bundle(reg_id, order, cap):
    lhs, rhs = bundle_xi_sides(reg_id, default_ring(cap))
    return _sides_witness(_poly_witness, lhs, rhs), [], [], {}


def _check_sqrt(reg_id, order, cap):
    ring = default_ring(cap)
    r_c = build_twisted_class("Rc", order, ring)
    q_c = build_twisted_class("Qc", order, ring)
    w_c = build_twisted_class("Wc", order, ring)
    return _sides_witness(_series_witness, qs_mul(r_c, r_c), qs_mul(q_c, w_c)), [], [], {}


def q1_bundle_sides(reg_id, ring):
    """Character of the q^1 coefficient of the expansion (LHS) and of the
    displayed bundle (RHS) of b1_check or d1_check."""
    b = display_bundles(ring)
    if reg_id == "b1_check":
        series = witten_character("ThetaTwisted", [b["T"], b["xi"]], 1)
        expected = b["B1"]
    else:
        series = witten_character("Phi", [b["T"]], 1)
        expected = b["D1"]
    return series.coefficient(1), expected


def _check_q1_bundle(reg_id, order, cap):
    lhs, rhs = q1_bundle_sides(reg_id, default_ring(cap))
    return _sides_witness(_poly_witness, lhs, rhs), [], [], {}


def _compare_residues(cases, images, problems):
    """Reduce each ``(label, poly, expected)`` case mod 2 under ``images``,
    append a problem for each residue that differs from ``expected``, and
    return the residues as report data."""
    data = {}
    for label, poly, expected in cases:
        got = mod2_reduce(poly, images)
        data["mod2_" + label] = str(got)
        if got != expected:
            problems.append("mod-2 residue of %s is %s, expected %s" % (label, got, expected))
    return data


def _check_pc(reg_id, order, cap):
    q_ring = PolyRing({"q1": 4, "q2": 8, "c": 2}, cap=8)
    g = q_ring.gens()
    q1, q2, c = g["q1"], g["q2"], g["c"]
    p1 = 2 * q1 + c * c
    p2 = 2 * q2 + q1 * q1

    pc8 = 4 * p2 - p1 * p1 - 6 * p1 * c * c + 39 * c ** 4
    pc_q = q2 - 2 * q1 * c * c + 4 * c ** 4
    ptc8 = 4 * p2 - 7 * p1 * p1 + 30 * p1 * c * c - 15 * c ** 4
    ptc_q = q2 - 3 * q1 * q1 + 4 * q1 * c * c + c ** 4
    lam_c_q = q1 - c * c

    problems = []
    if not (pc8 - 8 * pc_q).is_zero():
        problems.append("first divisibility: %s" % (pc8 - 8 * pc_q))
    if not (ptc8 - 8 * ptc_q).is_zero():
        problems.append("second divisibility: %s" % (ptc8 - 8 * ptc_q))
    if not (ptc_q - (pc_q - 3 * lam_c_q * lam_c_q)).is_zero():
        problems.append(
            "shifted form disagrees: %s" % (ptc_q - (pc_q - 3 * lam_c_q * lam_c_q))
        )

    w = MOD2_RING.gens()
    w2, w4, w8 = w["w2"], w["w4"], w["w8"]
    images = {"q1": w4, "q2": w8, "c": w2}
    residues = (
        ("p_c", pc_q, w8),
        ("pt_c", ptc_q, w8 + w4 * w4 + w2 ** 4),
        ("lam_c", lam_c_q, w4 + w2 * w2),
    )
    data = _compare_residues(residues, images, problems)
    return "; ".join(problems), [], [], data


def _check_mod2_orientable(reg_id, order, cap):
    p_ring = PolyRing({"p1": 4, "p2": 8}, cap=16)
    g = p_ring.gens()
    p1, p2 = g["p1"], g["p2"]
    w = MOD2_RING.gens()
    w2, w4 = w["w2"], w["w4"]
    images = {"p1": w2 * w2, "p2": w4 * w4}
    checks = (
        ("4p1^2-7p2", 4 * p1 * p1 - 7 * p2, w4 * w4),
        ("p1^2-7p2", p1 * p1 - 7 * p2, w2 ** 4 + w4 * w4),
    )
    problems = []
    data = _compare_residues(checks, images, problems)
    assumptions = [
        "integral degree-4k classes reduce mod 2 to squares of the degree-2k "
        "w-generators (taken as input, not derived here)"
    ]
    return "; ".join(problems), [], assumptions, data


def _check_differ(reg_id, order, cap):
    witness, findings, data = verify_differ(reg_id, cap=cap)
    return witness, findings, [], data


#: Every registry id, in report order, with its check.  A check takes
#: ``(reg_id, order, cap)`` and returns ``(witness, findings, assumptions,
#: data)``; it reaches the side builders through this module's globals.
_CHECKS = {
    "wfh_main": _check_theorem,
    "spin_new": _check_theorem,
    "spinc_main": _check_theorem,
    "spinc_new": _check_theorem,
    "o1": _check_theorem,
    "o2": _check_theorem,
    "fact_spinc_q": _check_fact,
    "fact_spinc_r": _check_fact,
    "fact_orient_q": _check_fact,
    "fact_orient_r": _check_fact,
    "deg8_spinc_q": _check_deg8,
    "deg8_spinc_r": _check_deg8,
    "deg8_orient_q": _check_deg8,
    "deg8_orient_r": _check_deg8,
    "bundle_xi_plus": _check_bundle,
    "bundle_xi_minus": _check_bundle,
    "sqrt_relation": _check_sqrt,
    "b1_check": _check_q1_bundle,
    "d1_check": _check_q1_bundle,
    "pc_theorem": _check_pc,
    "mod2_orientable": _check_mod2_orientable,
    "differ1": _check_differ,
    "differ2": _check_differ,
}

REGISTRY_IDS = tuple(_CHECKS)
THEOREM_IDS = REGISTRY_IDS[:6]


def verify_identity(reg_id, order=6, cap=12):
    """Run one registry check and return its VerificationReport.

    Raises ArgumentError for ``cap < 12``, where every degree-12 part is 0
    and the checks would pass on 0 = 0, and for ``order < 1``, which leaves
    no q^1 coefficient for the modular-form matches.
    """
    if reg_id not in REGISTRY_IDS:
        raise ValueError("unknown registry id %r" % (reg_id,))
    if cap < 12:
        raise ArgumentError("cap must be at least 12 to hold the degree-12 parts, got %d" % cap)
    if order < 1:
        raise ArgumentError("order must be at least 1 to match q^1 in the fact checks, got %d" % order)
    started = time.perf_counter()
    witness, findings, assumptions, data = _CHECKS[reg_id](reg_id, order, cap)
    millis = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        id=reg_id,
        status="pass" if witness == "" else "fail",
        witness=witness,
        order=int(order),
        cap=int(cap),
        millis=round(millis, 3),
        findings=findings,
        assumptions=assumptions,
        data=data,
    )


def run_registry(ids=None, order=6, cap=12):
    """Verify the requested ids (default: all) and return their reports in
    request order."""
    ids = list(ids) if ids is not None else list(REGISTRY_IDS)
    for reg_id in ids:
        if reg_id not in REGISTRY_IDS:
            raise ValueError("unknown registry id %r" % (reg_id,))
    return [verify_identity(reg_id, order=order, cap=cap) for reg_id in ids]
