"""Acceptance suite: ten end-to-end criteria for the package.

Each test prints one PASS/FAIL line (visible with -rA or on failure) and
asserts the criterion exactly: tolerances are pinned, wall-clock budgets
are asserted where the criterion carries one, and nothing is skipped.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from charmod.anomaly import (
    REGISTRY_IDS,
    THEOREM_IDS,
    build_twisted_class,
    degree_part_series,
    display_bundles,
    run_registry,
    theorem_sides,
    verify_identity,
)
from charmod.charring import PolyRing, default_ring, witten_expand
from charmod.cubiclattice import (
    TrilinearLattice,
    is_characteristic,
    solve_bhat,
    verify_refinement,
)
from charmod.exactmath import qs_mul
from charmod.thetamod import (
    e8_character,
    e8_lattice_theta,
    eisenstein,
    match_modular_basis,
    numeric_transform_check,
    phi,
    series_in_ring,
    theta_eighth_sum,
)


def report_line(number, passed, detail):
    line = "ACCEPTANCE %02d %s - %s" % (number, "PASS" if passed else "FAIL", detail)
    print(line)
    assert passed, line


# ----------------------------------------------------------------------
# 1. full registry at order 6
# ----------------------------------------------------------------------


def test_criterion_01_registry_order6():
    started = time.perf_counter()
    reports = run_registry(order=6)
    elapsed = time.perf_counter() - started

    failures = [r.id for r in reports if not r.passed]
    witnesses = [r.id for r in reports if r.witness]
    all_ids = [r.id for r in reports] == list(REGISTRY_IDS)

    ring = default_ring()
    displays_vanish = all(
        (lambda sides: (sides[0] - sides[1]).is_zero())(theorem_sides(reg_id, 1, ring))
        for reg_id in THEOREM_IDS
    )

    ok = not failures and not witnesses and all_ids and displays_vanish and elapsed < 120.0
    report_line(
        1,
        ok,
        "all %d identities verified at order 6 in %.1fs (failures: %s)"
        % (len(reports), elapsed, failures or "none"),
    )


# ----------------------------------------------------------------------
# 2. modular factorization of the four classes
# ----------------------------------------------------------------------


def test_criterion_02_modular_factorization():
    ring = default_ring()
    settings = (
        ("Qc", 14, -24),
        ("Rc", 10, -264),
        ("QL", 14, -24),
        ("RL", 10, -264),
    )
    problems = []
    for kind, weight, ratio in settings:
        series = build_twisted_class(kind, 6, ring)
        s12 = degree_part_series(series, 12)
        try:
            match_modular_basis(s12, weight)
        except Exception as exc:
            problems.append("%s: %s" % (kind, exc))
            continue
        if s12.coefficient(1) != ratio * s12.coefficient(0):
            problems.append("%s: q1/q0 ratio is not %d" % (kind, ratio))
    report_line(
        2,
        not problems,
        "degree-12 parts proportional to one modular form through q^6 "
        "with q1/q0 ratios -24/-264 (%s)" % (problems or "ok"),
    )


# ----------------------------------------------------------------------
# 3. first expansion coefficients at full character level
# ----------------------------------------------------------------------


def test_criterion_03_q1_bundles_exact():
    ring = default_ring()
    b = display_bundles(ring)
    theta_q1 = witten_expand("ThetaTwisted", [b["T"], b["xi"]], 1)[Fraction(1)]
    phi_q1 = witten_expand("Phi", [b["T"]], 1)[Fraction(1)]
    checks = {
        "B1 ch equality": (theta_q1 - b["B1"]).is_zero(),
        "B1 rank": b["B1"].constant_term() == 0 and theta_q1.constant_term() == 0,
        "D1 ch equality": (phi_q1 - b["D1"]).is_zero(),
        "D1 rank": b["D1"].constant_term() == 0 and phi_q1.constant_term() == 0,
    }
    failed = [k for k, v in checks.items() if not v]
    report_line(
        3,
        not failed,
        "q^1 coefficients of both expansions match the displayed bundles "
        "at full character level (%s)" % (failed or "ok"),
    )


# ----------------------------------------------------------------------
# 4. lattice theta, eighth powers, and the rank-248 character
# ----------------------------------------------------------------------


def test_criterion_04_theta_and_character():
    problems = []
    e4 = eisenstein(4, 5)
    if e8_lattice_theta(5) != theta_eighth_sum(5):
        problems.append("lattice theta differs from the eighth-power sum")
    if theta_eighth_sum(5) != e4:
        problems.append("eighth-power sum is not the weight-4 form")

    # independent long division of the weight-4 row by the Euler-product row
    e4_row = [Fraction(c) for c in e4.as_q_coeffs()]
    phi8_row = [Fraction(c) for c in (phi(5) ** 8).as_q_coeffs()]
    quotient = []
    for n in range(6):
        value = e4_row[n] - sum(phi8_row[j] * quotient[n - j] for j in range(1, n + 1))
        quotient.append(value / phi8_row[0])
    if quotient[:3] != [1, 248, 4124]:
        problems.append("character row disagrees with independent division")

    ring = default_ring(4)
    zero = ring.zero()
    char = e8_character((zero, zero, zero), 5)
    if [char.coefficient(n).constant_term() for n in range(6)] != quotient:
        problems.append("character series disagrees with independent division")

    # q^1 coefficient before division, in the free generator ring
    gring = PolyRing({"g1": 4, "g2": 8, "g3": 12}, cap=12)
    g = gring.gens()
    symbolic = e8_character((g["g1"], g["g2"], g["g3"]), 1)
    numerator = qs_mul(symbolic, series_in_ring(phi(1) ** 8, gring))
    q1 = numerator.coefficient(1)
    if q1.constant_term() != 240:
        problems.append("q^1 constant is %s, not 240" % q1.constant_term())
    if q1.monomial_coefficient(g1=1) != 30:
        problems.append("q^1 linear coefficient is not 30")
    if q1.monomial_coefficient(g2=1) != 0 or q1.monomial_coefficient(g3=1) != 0:
        problems.append("q^1 has spurious higher-generator terms")

    report_line(
        4,
        not problems,
        "theta comparisons through q^5 and character values 1, 248, 4124 "
        "with q^1 combination 240 + 30 g1 (%s)" % (problems or "ok"),
    )


# ----------------------------------------------------------------------
# 5. quadratic-form divisibilities and residue-2 reductions
# ----------------------------------------------------------------------


def test_criterion_05_pc_and_mod2():
    problems = []
    pc = verify_identity("pc_theorem")
    orient = verify_identity("mod2_orientable")
    if not pc.passed:
        problems.append("pc_theorem: %s" % pc.witness)
    if not orient.passed:
        problems.append("mod2_orientable: %s" % orient.witness)
    if not orient.assumptions:
        problems.append("the orientable reduction must record its input assumption")

    expected = {
        "mod2_p_c": "w8",
        "mod2_pt_c": "w8 + w4^2 + w2^4",
        "mod2_lam_c": "w4 + w2^2",
    }
    for key, value in expected.items():
        if pc.data.get(key) != value:
            problems.append("%s is %r, expected %r" % (key, pc.data.get(key), value))
    expected_orient = {
        "mod2_4p1^2-7p2": "w4^2",
        "mod2_p1^2-7p2": "w4^2 + w2^4",
    }
    for key, value in expected_orient.items():
        if orient.data.get(key) != value:
            problems.append("%s is %r, expected %r" % (key, orient.data.get(key), value))

    # the two divisibilities, transcribed independently
    q_ring = PolyRing({"q1": 4, "q2": 8, "c": 2}, cap=8)
    g = q_ring.gens()
    q1, q2, c = g["q1"], g["q2"], g["c"]
    p1 = 2 * q1 + c * c
    p2 = 2 * q2 + q1 * q1
    first = 4 * p2 - p1 * p1 - 6 * p1 * c * c + 39 * c ** 4
    second = 4 * p2 - 7 * p1 * p1 + 30 * p1 * c * c - 15 * c ** 4
    if not (first - 8 * (q2 - 2 * q1 * c * c + 4 * c ** 4)).is_zero():
        problems.append("first /8 divisibility fails")
    if not (second - 8 * (q2 - 3 * q1 * q1 + 4 * q1 * c * c + c ** 4)).is_zero():
        problems.append("second /8 divisibility fails")

    report_line(
        5,
        not problems,
        "both /8 divisibilities and all five residue-2 reductions (%s)"
        % (problems or "ok"),
    )


# ----------------------------------------------------------------------
# 6. boundary comparisons with reported residuals
# ----------------------------------------------------------------------


def test_criterion_06_boundary_comparisons():
    problems = []
    for which in ("differ1", "differ2"):
        rep = verify_identity(which)
        if not rep.passed:
            problems.append("%s: %s" % (which, rep.witness))
        if len(rep.findings) != 2 or not all("residual" in f for f in rep.findings):
            problems.append("%s must report both alternate-reading residuals" % which)
    report_line(
        6,
        not problems,
        "both comparisons verified with alternate-reading residuals "
        "reported as findings (%s)" % (problems or "ok"),
    )


# ----------------------------------------------------------------------
# 7. route independence of the twisted class
# ----------------------------------------------------------------------


def test_criterion_07_two_routes():
    ring = default_ring()
    adams = build_twisted_class("Wc", 4, ring, route="adams")
    theta = build_twisted_class("Wc", 4, ring, route="theta")
    equal = adams == theta
    report_line(7, equal, "both construction routes agree exactly through q^4")


# ----------------------------------------------------------------------
# 8. the square relation
# ----------------------------------------------------------------------


def test_criterion_08_square_relation():
    ring = default_ring()
    r_c = build_twisted_class("Rc", 4, ring)
    q_c = build_twisted_class("Qc", 4, ring)
    w_c = build_twisted_class("Wc", 4, ring)
    equal = qs_mul(r_c, r_c) == qs_mul(q_c, w_c)
    report_line(8, equal, "Rc^2 equals Qc * Wc exactly through q^4")


# ----------------------------------------------------------------------
# 9. exhaustive small-lattice sweep
# ----------------------------------------------------------------------


def _rank2_tensor(t000, t001, t011, t111):
    t = np.empty((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = t000
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = t001
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = t011
    t[1, 1, 1] = t111
    return t


def test_criterion_09_lattice_sweep():
    started = time.perf_counter()
    problems = []
    entries = range(-3, 4)

    # The defect 4x^3 + 6ax^2 + 3a^2x - bhat.x mod 24 is unchanged under
    # a -> a + 8 coordinate-wise (6*8 = 48 and 3*(16 + 16a) are 0 mod 24),
    # and being characteristic depends on a mod 2 only; so classes mod 8
    # cover every characteristic a, in particular all residues mod 48.

    # rank 1: exhaustive over tensors, a-classes, points, and dual vectors
    xs = np.arange(24, dtype=np.int64)
    checked_rank1 = 0
    for t in entries:
        lat = TrilinearLattice([[[t]]])
        for a in range(8):
            if not is_characteristic(lat, [a]):
                continue
            bhat = int(solve_bhat(lat, [a], 24)[0])  # raises on any defect
            base = (4 * t * xs ** 3 + 6 * t * a * xs ** 2 + 3 * t * a * a * xs) % 24
            duals = [b for b in range(24) if ((base - b * xs) % 24 == 0).all()]
            if duals != [bhat]:
                problems.append("rank-1 t=%d a=%d: duals %s" % (t, a, duals))
            checked_rank1 += 1
        # the mod-3 statement for a = 0
        if int(solve_bhat(lat, [0], 3)[0]) != (4 * t) % 3:
            problems.append("rank-1 t=%d: mod-3 linearization" % t)
    # spot-check the mod-8 reduction argument on shifted representatives
    for a in (10, 42):
        if int(solve_bhat(TrilinearLattice([[[3]]]), [a], 24)[0]) != int(
            solve_bhat(TrilinearLattice([[[3]]]), [a % 8], 24)[0]
        ):
            problems.append("mod-8 reduction fails at a=%d" % a)

    # rank 2: batch every symmetric tensor with entries in [-3, 3]
    grid24 = np.indices((24, 24)).reshape(2, -1).T.astype(np.int64)  # (576, 2)
    grid3 = np.indices((3, 3)).reshape(2, -1).T.astype(np.int64)  # (9, 2)
    a_classes = np.indices((8, 8)).reshape(2, -1).T.astype(np.int64)  # (64, 2)
    parities = ((0, 0), (0, 1), (1, 0), (1, 1))

    checked_rank2 = 0
    combos = []
    for t000 in entries:
        for t001 in entries:
            for t011 in entries:
                for t111 in entries:
                    tensor = _rank2_tensor(t000, t001, t011, t111)
                    lat = TrilinearLattice(tensor)
                    char_parity = {
                        p for p in parities if is_characteristic(lat, list(p))
                    }
                    keep = np.array(
                        [tuple(a % 2) in char_parity for a in a_classes], dtype=bool
                    )
                    sel = a_classes[keep]
                    t = lat.tensor

                    # mod-3 linearization at a = 0 (no hypothesis needed)
                    tiii = np.einsum("iii->i", t)
                    cubic3 = np.einsum("ijk,mi,mj,mk->m", t, grid3, grid3, grid3)
                    defect3 = (4 * cubic3 - grid3 @ ((4 * tiii) % 3)) % 3
                    if defect3.any():
                        problems.append(
                            "rank-2 %s: mod-3 defect" % ([t000, t001, t011, t111],)
                        )

                    if not sel.size:
                        continue
                    cubic = np.einsum("ijk,mi,mj,mk->m", t, grid24, grid24, grid24)
                    ta = np.einsum("ijk,ai->ajk", t, sel)
                    quad = np.einsum("ajk,mj,mk->am", ta, grid24, grid24)
                    taa = np.einsum("ajk,aj->ak", ta, sel)
                    diag_ta = np.einsum("ajj->aj", ta)
                    bhat = (4 * tiii[None, :] + 6 * diag_ta + 3 * taa) % 24
                    defect = (
                        4 * cubic[None, :]
                        + 6 * quad
                        + 3 * (taa @ grid24.T)
                        - bhat @ grid24.T
                    ) % 24
                    if defect.any():
                        bad = np.argwhere(defect)[0]
                        problems.append(
                            "rank-2 %s a=%s: defect at %s"
                            % (
                                [t000, t001, t011, t111],
                                sel[bad[0]].tolist(),
                                grid24[bad[1]].tolist(),
                            )
                        )
                    checked_rank2 += sel.shape[0]
                    combos.append((tensor, sel))

    # uniqueness of the dual vector, by full exhaustion on a sample
    rng = np.random.default_rng(20240817)
    duals = grid24  # every candidate mod 24
    for index in rng.choice(len(combos), size=25, replace=False):
        tensor, sel = combos[index]
        a = sel[int(rng.integers(len(sel)))]
        t = tensor
        base = (
            4 * np.einsum("ijk,mi,mj,mk->m", t, grid24, grid24, grid24)
            + 6 * np.einsum("ijk,i,mj,mk->m", t, a, grid24, grid24)
            + 3 * grid24 @ np.einsum("ijk,i,j->k", t, a, a)
        )
        table = (base[None, :] - duals @ grid24.T) % 24
        solutions = int(((table == 0).all(axis=1)).sum())
        if solutions != 1:
            problems.append("dual vector not unique (found %d)" % solutions)
        # and the batch bhat agrees with the library solver
        lat = TrilinearLattice(tensor)
        if not np.array_equal(
            solve_bhat(lat, a, 24), duals[(table == 0).all(axis=1)][0]
        ):
            problems.append("library solver disagrees with batch sweep")

    # symbolic refinement: the third difference of (f(2x) - f(0))/48
    # recovers the trilinear form for EVERY rank-2 tensor, a, and b
    t000, t001, t011, t111 = sympy.symbols("t000 t001 t011 t111")
    a1, a2, b1, b2 = sympy.symbols("a1 a2 b1 b2")
    vx = sympy.symbols("x1 x2")
    vy = sympy.symbols("y1 y2")
    vz = sympy.symbols("z1 z2")

    def cube(v):
        return (
            t000 * v[0] ** 3
            + 3 * t001 * v[0] ** 2 * v[1]
            + 3 * t011 * v[0] * v[1] ** 2
            + t111 * v[1] ** 3
        )

    def f(v):
        w = (a1 + v[0], a2 + v[1])
        return cube(w) - (b1 * w[0] + b2 * w[1])

    def h(v):
        return (f((2 * v[0], 2 * v[1])) - f((0, 0))) / 48

    def vsum(*vectors):
        return tuple(sum(col) for col in zip(*vectors))

    third = (
        h(vsum(vx, vy, vz))
        - h(vsum(vx, vy))
        - h(vsum(vx, vz))
        - h(vsum(vy, vz))
        + h(vx)
        + h(vy)
        + h(vz)
        - h((0, 0))
    )
    trilinear = (
        t000 * vx[0] * vy[0] * vz[0]
        + t001 * (vx[0] * vy[0] * vz[1] + vx[0] * vy[1] * vz[0] + vx[1] * vy[0] * vz[0])
        + t011 * (vx[0] * vy[1] * vz[1] + vx[1] * vy[0] * vz[1] + vx[1] * vy[1] * vz[0])
        + t111 * vx[1] * vy[1] * vz[1]
    )
    if sympy.expand(third - trilinear) != 0:
        problems.append("symbolic third-difference identity fails")

    # and numerically with 10^4 triples on one concrete lattice
    lat = TrilinearLattice(_rank2_tensor(2, -1, 3, 1))

    def refinement(v):
        x1, x2 = (int(c) for c in v)
        value = (
            2 * x1 ** 3
            - 3 * x1 ** 2 * x2
            + 9 * x1 * x2 ** 2
            + x2 ** 3
        )
        return Fraction(value, 6)

    numeric = verify_refinement(lat, refinement, samples=10000, seed=11)
    if not numeric["passed"]:
        problems.append("numeric refinement witness: %s" % numeric["witness"])

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 300.0
    report_line(
        9,
        ok,
        "swept %d rank-1 and %d rank-2 characteristic classes, mod-3 cases, "
        "uniqueness sample, and refinements in %.1fs (%s)"
        % (checked_rank1, checked_rank2, elapsed, problems[:3] or "ok"),
    )


# ----------------------------------------------------------------------
# 10. numeric transformation laws
# ----------------------------------------------------------------------


def test_criterion_10_numeric_laws():
    rng = random.Random(90125)
    taus = [2j] + [
        complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)) for _ in range(5)
    ]
    problems = []
    worst = 0.0
    for tau in taus:
        v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        for kind in ("theta", "theta1", "theta2", "theta3", "E2"):
            result = numeric_transform_check(kind, v, tau, terms=60, tol=1e-8)
            worst = max(worst, result["shift_residual"], result["inversion_residual"])
            if result["shift_residual"] >= 1e-8:
                problems.append("%s shift residual at tau=%s" % (kind, tau))
            if result["inversion_residual"] >= 1e-8:
                problems.append("%s inversion residual at tau=%s" % (kind, tau))
    report_line(
        10,
        not problems,
        "all transformation laws hold numerically at 6 sample points, "
        "worst residual %.2e (%s)" % (worst, problems[:3] or "ok"),
    )
