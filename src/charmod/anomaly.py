"""Verification registry for the degree-12 identity family.

Each registry entry states one exact identity — a polynomial identity among
graded generators, a q-series factorization through a one-dimensional space
of modular forms, a bundle identity at the character level, a residue
congruence, or a boundary-restriction comparison — and verifies it by exact
arithmetic, returning a `VerificationReport`.

Every cubic form and index side comes from a base (spin, spin^c or
orientable) and a number k of E8 copies by two rules, `cubic_form` and
`_index_bundle`.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import NamedTuple

from .exactmath import GRID, QExpSeries, _exp_nilpotent, _nilpotent_sum, qs_mul
from .charring import (
    ArgumentError,
    PolyRing,
    _poly,
    _power_sums,
    calibrate_e8_roots,
    ch_tangent,
    default_ring,
    e8_ch,
    exp_combination,
    line_pair_ch,
    multiplicative_class,
    vb_lambda2_sym2,
    witten_character,
    witten_log,
)
from .thetamod import (
    THETA_KINDS,
    NotProportional,
    e8_theta_sum,
    eisenstein,
    match_modular_basis,
    theta_log_ratio,
)


class UnsupportedGenerator(ValueError):
    """A polynomial mentions a generator with no boundary-restriction image."""


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


class VerificationReport(NamedTuple):
    """Outcome of one registry check.

    ``witness`` renders the first discrepancy and stays empty on a pass.
    ``findings`` carry observations that do not decide the status (for
    example alternate-reading residuals); ``assumptions`` record inputs
    taken on trust; ``data`` holds auxiliary exact values as strings.  The
    defaults are immutable: ``()`` and ``data=None``.
    """

    id: str
    status: str
    witness: str = ""
    order: int = 0
    cap: int = 12
    millis: float = 0.0
    findings: list = ()
    assumptions: list = ()
    data: dict = None

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return self._asdict()

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
def _e8_theta_sum(ring, order):
    """phi^8 times the character q-series of the calibrated rank-248
    bundle: the E8 factor of a twisted class, one per copy."""
    return e8_theta_sum(calibrate_e8_roots(ring.gen("x")), order)


# ----------------------------------------------------------------------
# twisted-class builders
# ----------------------------------------------------------------------

#: The three bases of the paper's generalized Witten classes: spin,
#: spin^c and orientable manifolds.  Each maps to the p1 and c^2
#: coefficients of K_0, the prefactor exponent of its class with no E8
#: copy, the twist spec of its Witten series (spin^c twists by the line
#: pair xi of c), the multiplicative class of its weight (times cosh(c/2)
#: for spin^c), and the two constants every registry weight derives from:
#: w, the weight of Q in the degree-8 displays, and c, the index weight of
#: one E8 copy.  The base twisted by k copies is modular of weight 6 + 4k,
#: and its theorem weighs the index density c/k and the cubic form 2wc/k.
_BASES = {
    "spin": ((1, 0), "Theta", "Ahat", Fraction(1, 24), Fraction(1, 2)),
    "spinc": ((1, -3), "ThetaTwisted", "Ahat", Fraction(1, 24), Fraction(1)),
    "orient": ((-2, 0), "Phi", "Lhat", Fraction(8, 3), Fraction(1, 16)),
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


def _exponent(base, copies, ring):
    """K in the prefactor exp((1/24) E2 K) of a base twisted by ``copies``
    E8 copies: the base's multiple of p1 and c^2, plus 2x for each copy."""
    a_p1, a_c2 = _BASES[base][0]
    g = ring.gens()
    return a_p1 * g["p1"] + a_c2 * g["c"] * g["c"] + 2 * copies * g["x"]


@lru_cache(maxsize=None)
def _weight_class(base, ring):
    """Ahat, Ahat cosh(c/2) or Lhat: the weight of a base's Witten series."""
    weight = multiplicative_class(_BASES[base][2], 12, ring)
    if base == "spinc":
        weight = weight * line_pair_ch(ring.gen("c") * Fraction(1, 2)) * Fraction(1, 2)
    return weight


def _witten_args(base, ring):
    """The twist spec and inputs of a base's Witten series: the tangent
    character, and xi for spin^c."""
    b = display_bundles(ring)
    return _BASES[base][1], [b["T"]] + ([b["xi"]] if base == "spinc" else [])


@lru_cache(maxsize=None)
def _base_factor(base, order, ring, route):
    """F = exp((1/24) E2 K_0) W (Witten series), a base's class with no E8
    copy, as one `exp_combination` of the prefactor pair and the Witten log:
    over the inputs' Adams images, then times W ("adams"), or from theta
    log-ratios over root power sums, whose q^0 parts are log W ("theta")."""
    pairs = [(eisenstein(2, order), _exponent(base, 0, ring) * Fraction(1, 24))]
    if route == "adams":
        pairs += witten_log(*_witten_args(base, ring), order)
        return exp_combination(pairs, ring, order).scale(_weight_class(base, ring))
    sums = _power_sums(ring, ("p1", "p2", "p3"))
    for kind_name in THETA_KINDS if base == "orient" else ("theta",):
        pairs += zip(theta_log_ratio(kind_name, order), sums)
    if base == "spinc":
        c = ring.gen("c")
        for kind_name in THETA_KINDS[1:]:
            pairs += zip(theta_log_ratio(kind_name, order), [c ** 2, c ** 4, c ** 6])
    out = exp_combination(pairs, ring, order)
    # the per-root constant 2 of the Lhat root function, over six roots
    return out.scale(64) if base == "orient" else out


@lru_cache(maxsize=None)
def _copy_prefactor(ring, order):
    """exp((1/12) E2 x): the part of the prefactor that one E8 copy adds."""
    return exp_combination([(eisenstein(2, order), ring.gen("x") * Fraction(1, 12))], ring, order)


def build_twisted_class(kind, order, ring=None, route="adams"):
    """Assemble one of the q-expanded characteristic classes.

    ``route`` picks the Adams-operation expansion ("adams") or the
    theta-ratio expansion ("theta"); both must agree.
    """
    if kind not in _CLASS_TABLE:
        raise ValueError("unknown class kind %r" % (kind,))
    if route not in ("adams", "theta"):
        raise ValueError("unknown route %r" % (route,))
    return _twisted_class(*_CLASS_TABLE[kind], int(order), ring or default_ring(), route)


def _twisted_class(base, copies, order, ring, route):
    """F B^copies: the base factor F times, once per copy, the bracket
    B = exp((1/12) E2 x) (E8 factor), as K = K_0 + 2 copies x splits the
    prefactor.  F, B^copies and their product are cached; the last two are
    keyed by the E8 factor bound to `_e8_theta_sum` at call time, so a
    replaced factor builds new ones."""
    if not copies:
        return _base_factor(base, order, ring, route)
    return _class_product(base, copies, order, ring, route, _e8_theta_sum)


@lru_cache(maxsize=None)
def _class_product(base, copies, order, ring, route, e8_factor):
    """F B^copies for copies >= 1, with the E8 factor ``e8_factor``."""
    return qs_mul(_base_factor(base, order, ring, route), _bracket_power(copies, ring, order, e8_factor))


@lru_cache(maxsize=None)
def _bracket_power(copies, ring, order, e8_factor):
    """B^copies for copies >= 1, B = exp((1/12) E2 x) (E8 factor)."""
    if copies > 1:
        return _bracket_power(1, ring, order, e8_factor) ** copies
    return qs_mul(_copy_prefactor(ring, order), e8_factor(ring, order))


def degree_part_series(series, degree):
    """Take the homogeneous part of every q-coefficient."""
    return QExpSeries(series.ring, series.order,
                      {k: poly.homogeneous_part(degree) for k, poly in series.terms.items()})


# ----------------------------------------------------------------------
# cubic forms and their index bundles
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def display_bundles(ring):
    """Characters of the bundles named by the displays, read-only: T, V, the
    line pair xi of c and its reduction xi_t, the exterior and symmetric
    squares of T, and the displayed q^1 bundles B1 (spin^c) and D1 (orientable)."""
    T = ch_tangent(12, ring)
    xi = line_pair_ch(ring.gen("c"))
    xi_t = xi - 2
    lam2, sym2 = vb_lambda2_sym2(T)
    return MappingProxyType({
        "T": T,
        "V": e8_ch(ring.gen("x")),
        "xi": xi,
        "xi_t": xi_t,
        "lam2": lam2,
        "sym2": sym2,
        "B1": T - 12 - 3 * xi_t - xi_t * xi_t,
        "D1": 2 * T + lam2 - sym2 - 12,
    })


#: The degree-8 class p of each base's cubic form.
_P_CLASSES = {
    "spin": lambda p1, p2, c: (4 * p2 - p1 * p1) / 8,
    "spinc": lambda p1, p2, c: (4 * p2 - p1 * p1 - 6 * p1 * c * c + 39 * c ** 4) / 8,
    "orient": lambda p1, p2, c: 4 * p1 * p1 - 7 * p2,
}


@lru_cache(maxsize=None)
def cubic_form(base, k, ring):
    """(L, Q) of the cubic form L * Q of a base with k copies of the E8
    bundle.

    L = lam + k x is half the prefactor exponent K of the base twisted by k
    copies, lam = K_0 / 2 the untwisted half, and
    Q = p - lam^2 - 2 k lam x - 4 x^2 with the base's degree-8 class p.
    L Q is the lattice cubic -f_{lam,p}(2x) of `cubiclattice` for k = 2 and
    -ftilde_{lam,p}(x) for k = 1.
    """
    g = ring.gens()
    lam = _exponent(base, 0, ring) / 2
    x = g["x"]
    p = _P_CLASSES[base](g["p1"], g["p2"], g["c"])
    return lam + k * x, p - lam * lam - 2 * k * lam * x - 4 * x * x


@lru_cache(maxsize=None)
def _q1_bundle(base, ring):
    """R, the displayed q^1 coefficient of a base's Witten series: T - 12,
    B1 or D1, each of rank 0."""
    b = display_bundles(ring)
    return {"spin": b["T"] - 12, "spinc": b["B1"], "orient": b["D1"]}[base]


def _index_bundle(k, v, reduced):
    """k V + R + 504 - 248 k: the bundle of a cubic form with k copies of
    the E8 bundle ``v`` and the rank-0 bundle ``reduced``, of rank 504.

    Its index density is the base's weight times its character.  For
    spin^c that weight is Ahat cosh(c/2), where the display has
    Ahat exp(c/2): every other factor is even in c and every generator but
    c has degree 0 mod 4, so the odd part sinh(c/2) lands only in degrees
    2 mod 4, and the two agree in the degrees 8 and 12 read here.
    """
    return k * v + reduced + (504 - 248 * k)


def exp_minus_one_over(k_poly):
    """(exp(K/24) - 1)/K as a polynomial: sum_{j>=1} K^{j-1}/(24^j j!).

    K must have no constant term, so the sum terminates in the capped ring.
    """
    if k_poly.constant_term() != 0:
        raise ValueError("K must have zero constant term")
    return _nilpotent_sum(k_poly, lambda j: Fraction(1, 24 ** (j + 1) * factorial(j + 1)))


@lru_cache(maxsize=None)
def _q0_coefficient(base, k, ring):
    """exp(K/24) W, with W the base's weight class: the q^0 coefficient of
    the base twisted by k copies, as E2, the Witten series and E8 factor
    start at 1."""
    return _exp_nilpotent(_exponent(base, k, ring) * Fraction(1, 24)) * _weight_class(base, ring)


def deg8_display_sides(reg_id, order, ring):
    """LHS (brace degree-8 part) and RHS (w times Q of the cubic form) of
    one display."""
    base, k = _row(reg_id, deg8_display_sides)
    u = exp_minus_one_over(_exponent(base, k, ring))
    bundle = _index_bundle(k, display_bundles(ring)["V"], _q1_bundle(base, ring))
    brace = -(u * _weight_class(base, ring) * bundle) + _q0_coefficient(base, k, ring)
    _, Q = cubic_form(base, k, ring)
    return brace.homogeneous_part(8), Q * _BASES[base][3]


# ----------------------------------------------------------------------
# boundary restriction (codimension-2 comparison)
# ----------------------------------------------------------------------

U_GENERATORS = {"tP1": 4, "tP2": 8, "tx": 4, "e": 2}


@lru_cache(maxsize=None)
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


def _differ_gamma(which, ring):
    """The spin^c cubic form minus the spin one, both with the comparison's
    k copies, over 12."""
    _, k = _row(which, _check_differ)
    l_c, q_c = cubic_form("spinc", k, ring)
    l, q = cubic_form("spin", k, ring)
    return (l_c * q_c - l * q) / 12


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

    (1/2) Ahat(T_U) ch(bundle) tanh(e/4), where the bundle is the spin index
    bundle with the comparison's k copies restricted to U: T restricts to
    T_U + N and V to i*V, so it is 2 i*V + T_U + N - 4 for differ1 and
    i*V + T_U + N + 244 for differ2.
    """
    ahat_tanh, i_v, reduced = _boundary_pieces(target or boundary_ring())
    bundle = _index_bundle(_row(which, _check_differ)[1], i_v, reduced)
    return ((ahat_tanh * bundle) / 2).homogeneous_part(10)


@lru_cache(maxsize=None)
def _boundary_pieces(ring):
    """Ahat(T_U) tanh(e/4), i*V and T_U + N - 12 over a boundary ring: the
    parts of `boundary_tanh_term` that both comparisons share."""
    names = ("tP1", "tP2")
    e = ring.gen("e")
    ahat = multiplicative_class("Ahat", 10, ring, pontryagin_names=names)
    tanh = e / 4 - e ** 3 / 192 + e ** 5 / 7680
    reduced = ch_tangent(10, ring, pontryagin_names=names) + line_pair_ch(e) - 12
    return ahat * tanh, e8_ch(ring.gen("tx")), reduced


def verify_differ(which, cap=12):
    """Check one boundary comparison: c^2-divisibility and the exact closed
    quadratic form.  The form restricted to the boundary goes into the data,
    and the residuals of the two alternate symbol readings into the
    findings."""
    _, k = _row(which, _check_differ)
    ring = default_ring(cap)
    g = ring.gens()
    p1, p2, c = g["p1"], g["p2"], g["c"]

    gamma = _differ_gamma(which, ring)
    try:
        delta = gamma.divide_by_gen("c")
        delta.divide_by_gen("c")
    except ValueError as exc:
        return "not divisible by c^2: %s" % exc, [], {}

    C, _ = cubic_form("spin", k, ring)
    expected = c * _differ_quadratic(which, C, p1, p2, c) / 64
    witness = _witness(delta, expected)
    if delta != expected:
        witness = "closed form mismatch: " + witness

    ru = boundary_ring()
    lhs_u = restrict_to_u(delta, ru)

    # Alternate readings of the displayed form, where the p- and C-symbols
    # are taken on the ten-dimensional side instead of restricted.
    gu = ru.gens()
    tp1, tp2, tx, e = gu["tP1"], gu["tP2"], gu["tx"], gu["e"]
    shift = k * tx
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

def _witness(lhs, rhs):
    """The discrepancy between two sides, polynomials or q-series: "" when
    they are equal, and a failure when both are 0, since an identity that
    holds as 0 = 0 has checked nothing.  Otherwise the difference, for a
    series at its lowest power of q."""
    if lhs.is_zero() and rhs.is_zero():
        return "both sides are 0"
    if lhs == rhs:
        return ""
    diff = lhs - rhs
    if diff.is_zero():
        return ""
    if isinstance(diff, QExpSeries):
        grid_key = min(diff.terms)
        return "q^(%s): %s" % (Fraction(grid_key, GRID), diff.terms[grid_key])
    return str(diff)


def theorem_sides(reg_id, order, ring):
    """Degree-12 parts of a main identity with k copies: the cubic form
    L Q weighted 2wc/k (LHS) and the index density, the base's weight
    times the index bundle k V + R + 504 - 248 k, weighted c/k (RHS), with
    w and c the base's constants in `_BASES`."""
    base, k = _row(reg_id, theorem_sides)
    w, c = _BASES[base][3:]
    L, Q = cubic_form(base, k, ring)
    bundle = _index_bundle(k, display_bundles(ring)["V"], _q1_bundle(base, ring))
    lhs = L * Q * (2 * w * c / k)
    rhs = _weight_class(base, ring) * bundle * (c / k)
    return lhs.homogeneous_part(12), rhs.homogeneous_part(12)


def _check_fact(reg_id, order, ring):
    base, k = _row(reg_id, _check_fact)
    weight = 6 + 4 * k
    kind = next(kind for kind, row in _CLASS_TABLE.items() if row == (base, k))
    s12 = degree_part_series(build_twisted_class(kind, order, ring), 12)
    try:
        m = match_modular_basis(s12, weight)
    except NotProportional as exc:
        witness = "degree-12 part is not a multiple of the weight-%d form at q^(%s): %s"
        return witness % (weight, exc.order, exc.difference), [], [], {}
    data = {"multiplier": str(m)}
    if m == 0:
        return "degree-12 part vanishes (multiplier 0)", [], [], data
    # the q^0 coefficient needs no series, so a scaled E8 factor fails here
    expected = _q0_coefficient(base, k, ring).homogeneous_part(12)
    if m != expected:
        return "multiplier is not deg12(exp(K/24) W), off by %s" % (m - expected), [], [], data
    return "", [], [], data


def bundle_xi_sides(reg_id, order, ring):
    """Characters of the reduced-bundle form (LHS) and the xi form (RHS) of
    one bundle identity."""
    b = display_bundles(ring)
    xi, xi_t = b["xi"], b["xi_t"]
    if reg_id == "bundle_xi_plus":
        lhs, rhs = 4 + 3 * xi_t + xi_t * xi_t, xi * xi - xi + 2
    else:
        lhs, rhs = 244 - 3 * xi_t - xi_t * xi_t, 246 - xi * xi + xi
    return lhs, rhs


def sqrt_sides(reg_id, order, ring):
    """Rc^2 (LHS) and Qc Wc (RHS) through q^order."""
    r_c, q_c, w_c = (build_twisted_class(kind, order, ring) for kind in ("Rc", "Qc", "Wc"))
    return qs_mul(r_c, r_c), qs_mul(q_c, w_c)


def q1_bundle_sides(reg_id, order, ring):
    """Character of the q^1 coefficient of the base's Witten series (LHS)
    and of the displayed bundle B1 or D1 (RHS)."""
    base, _ = _row(reg_id, q1_bundle_sides)
    return witten_character(*_witten_args(base, ring), 1).coefficient(1), _q1_bundle(base, ring)


def _check_residues(reg_id, order, ring):
    """Residues mod 2 of a base's degree-8 class p, of p~ = p - 3 lam^2 and,
    for spin^c, of lam = K_0 / 2, with p and lam read from `_P_CLASSES` and
    `_BASES` as `cubic_form` reads them.  For spin^c each class is written
    in the integral generators q1, q2, c with p1 = 2 q1 + c^2 and
    p2 = 2 q2 + q1^2, where it must equal its displayed integral form; the
    orientable classes stay in p1 and p2.  A class that `mod2_reduce`
    rejects, for a non-integer coefficient or a generator with no residue
    image, fails with a witness."""
    base, _ = _row(reg_id, _check_residues)
    ring = default_ring(8)
    g = ring.gens()
    p = _P_CLASSES[base](g["p1"], g["p2"], g["c"])
    lam = _exponent(base, 0, ring) / 2
    w2, w4, w8 = (MOD2_RING.gen(name) for name in ("w2", "w4", "w8"))
    problems, data, assumptions = [], {}, []
    if base == "spinc":
        q_ring = _integral_ring()
        q1, q2, c = (q_ring.gen(name) for name in ("q1", "q2", "c"))
        integral = {"p1": 2 * q1 + c * c, "p2": 2 * q2 + q1 * q1, "c": c}
        p, lam = (_substitute(v, integral, q_ring) for v in (p, lam))
        images = {"q1": w4, "q2": w8, "c": w2}
        cases = (
            ("p_c", p, q2 - 2 * q1 * c * c + 4 * c ** 4, w8),
            ("pt_c", p - 3 * lam * lam, q2 - 3 * q1 * q1 + 4 * q1 * c * c + c ** 4,
             w8 + w4 * w4 + w2 ** 4),
            ("lam_c", lam, q1 - c * c, w4 + w2 * w2),
        )
    else:
        images = {"p1": w2 * w2, "p2": w4 * w4}
        cases = (
            ("4p1^2-7p2", p, None, w4 * w4),
            ("p1^2-7p2", p - 3 * lam * lam, None, w2 ** 4 + w4 * w4),
        )
        assumptions.append("integral degree-4k classes reduce mod 2 to squares of the degree-2k "
                           "w-generators (taken as input, not derived here)")
    for label, cls, form, expected in cases:
        if form is not None and cls != form:
            problems.append("%s is not %s, off by %s" % (label, form, cls - form))
        try:
            got = mod2_reduce(cls, images)
        except ValueError as exc:
            problems.append("%s has no residue: %s" % (label, exc))
            continue
        data["mod2_" + label] = str(got)
        if got != expected:
            problems.append("mod-2 residue of %s is %s, expected %s" % (label, got, expected))
    return "; ".join(problems), [], assumptions, data


#: The ring of the integral generators q1, q2, c of the spin^c residues.
_integral_ring = lru_cache(maxsize=None)(lambda: PolyRing({"q1": 4, "q2": 8, "c": 2}, cap=8))


def _check_differ(reg_id, order, ring):
    witness, findings, data = verify_differ(reg_id, cap=ring.cap)
    return witness, findings, [], data


#: Every registry id, in report order, as (check, base, E8 copies k), with
#: None where its check reads no base or no k; b1_check and d1_check read
#: the untwisted Witten series.  Every weight of a row follows from k and
#: the base's constants in `_BASES`.  A check takes ``(reg_id, order, ring)``;
#: a two-sided id's check is its sides builder and returns ``(lhs, rhs)``,
#: any other ``(witness, findings, assumptions, data)``.
_REGISTRY = {
    "wfh_main": (theorem_sides, "spin", 2),
    "spin_new": (theorem_sides, "spin", 1),
    "spinc_main": (theorem_sides, "spinc", 2),
    "spinc_new": (theorem_sides, "spinc", 1),
    "o1": (theorem_sides, "orient", 2),
    "o2": (theorem_sides, "orient", 1),
    "fact_spinc_q": (_check_fact, "spinc", 2),
    "fact_spinc_r": (_check_fact, "spinc", 1),
    "fact_orient_q": (_check_fact, "orient", 2),
    "fact_orient_r": (_check_fact, "orient", 1),
    "deg8_spinc_q": (deg8_display_sides, "spinc", 2),
    "deg8_spinc_r": (deg8_display_sides, "spinc", 1),
    "deg8_orient_q": (deg8_display_sides, "orient", 2),
    "deg8_orient_r": (deg8_display_sides, "orient", 1),
    "bundle_xi_plus": (bundle_xi_sides, None, None),
    "bundle_xi_minus": (bundle_xi_sides, None, None),
    "sqrt_relation": (sqrt_sides, None, None),
    "b1_check": (q1_bundle_sides, "spinc", 0),
    "d1_check": (q1_bundle_sides, "orient", 0),
    "pc_theorem": (_check_residues, "spinc", None),
    "mod2_orientable": (_check_residues, "orient", None),
    "differ1": (_check_differ, None, 2),
    "differ2": (_check_differ, None, 1),
}

REGISTRY_IDS = tuple(_REGISTRY)
THEOREM_IDS = tuple(i for i in REGISTRY_IDS if _REGISTRY[i][0] is theorem_sides)
DEG8_IDS = tuple(i for i in REGISTRY_IDS if _REGISTRY[i][0] is deg8_display_sides)


def _row(reg_id, check):
    """(base, k) of a registry id; ValueError unless ``check`` checks it."""
    if reg_id not in _REGISTRY or _REGISTRY[reg_id][0] is not check:
        raise ValueError("%r is not an id of %s" % (reg_id, check.__name__))
    return _REGISTRY[reg_id][1:]


def verify_identity(reg_id, order=6, cap=12):
    """Run one registry check and return its VerificationReport.

    Raises ArgumentError for an unknown id; for ``cap < 12``, where every
    degree-12 part is 0 and the checks would pass on 0 = 0; for ``cap > 15``,
    where V has no character in x alone; and for ``order < 1``, which leaves
    no q^1 coefficient for the modular-form matches.
    """
    if reg_id not in REGISTRY_IDS:
        raise ArgumentError("unknown id %r (known: %s)" % (reg_id, ", ".join(REGISTRY_IDS)))
    if not 12 <= cap <= 15:
        raise ArgumentError(
            "cap must be at least 12 to hold the degree-12 parts and at most 15 "
            "to leave V a character in x alone, got %d" % cap
        )
    if order < 1:
        raise ArgumentError("order must be at least 1 to match q^1 in the fact checks, got %d" % order)
    started = time.perf_counter()
    outcome = _REGISTRY[reg_id][0](reg_id, order, default_ring(cap))
    if len(outcome) == 2:
        outcome = _witness(*outcome), [], [], {}
    witness, findings, assumptions, data = outcome
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
    return [verify_identity(reg_id, order=order, cap=cap) for reg_id in ids]
