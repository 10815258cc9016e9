"""Independent checks of charmod's outputs.

Nothing here imports charmod.  Every checker returns a list of problems;
an empty list means the output is accepted.  The expected values come from
plain Python ints, ``fractions`` and sympy:

- registry multipliers from the classical A-hat / L-hat genera, built from
  the sympy series of their characteristic power series;
- the rank-248 character row as E4 / phi^8 and the lattice theta row as
  1 + 240 sigma_3(n);
- every lattice ``bhat`` by recomputing the cubic defect.
"""

import itertools
import math
from functools import lru_cache

# ----------------------------------------------------------------------
# registry reports
# ----------------------------------------------------------------------

#: id -> (prefactor exponent K as {generator: coefficient}, spin^c?)
FACT_CLASSES = {
    "fact_spinc_q": ({"p1": 1, "c^2": -3, "x": 4}, True),
    "fact_spinc_r": ({"p1": 1, "c^2": -3, "x": 2}, True),
    "fact_orient_q": ({"p1": -2, "x": 4}, False),
    "fact_orient_r": ({"p1": -2, "x": 2}, False),
}


@lru_cache(maxsize=None)
def _symbols():
    import sympy

    return sympy.symbols("p1 p2 p3 c x t")


@lru_cache(maxsize=None)
def fact_multiplier(reg_id):
    """Degree-12 part of the class's q^0 term, as a sympy expression.

    The q^0 term of every factorized class is its genus times exp(K/24):
    A-hat * cosh(c/2) for the spin^c kinds and 64 * L-hat(p/4), that is the
    genus of y / tanh(y/2) over six roots, for the oriented kinds.  The genus
    is exp(sum_k a_k s_k) with a_k the y^(2k) coefficients of the log of the
    characteristic series and s_k the power sums of the squared roots,
    written in p1, p2, p3 by Newton's identities.  The variable t carries
    the cohomological degree.
    """
    import sympy

    p1, p2, p3, c, x, t = _symbols()
    y = sympy.Symbol("y")
    K, spinc = FACT_CLASSES[reg_id]
    if spinc:
        series = (y / 2) / sympy.sinh(y / 2)
    else:
        series = y / sympy.tanh(y / 2)
    constant = sympy.limit(series, y, 0)
    log_series = sympy.series(sympy.log(series / constant), y, 0, 8).removeO()
    a = [log_series.coeff(y, 2 * k) for k in (1, 2, 3)]
    power_sums = [p1, p1**2 - 2 * p2, p1**3 - 3 * p1 * p2 + 3 * p3]
    exponent = sum(a[k] * power_sums[k] * t ** (4 * (k + 1)) for k in range(3))
    k_poly = sum(
        coeff * {"p1": p1, "c^2": c**2, "x": x}[name] for name, coeff in K.items()
    )
    exponent += sympy.Rational(1, 24) * k_poly * t**4
    total = _truncated_exp(exponent, t, 12) * constant**6
    if spinc:
        total *= sum((c * t**2 / 2) ** (2 * j) / math.factorial(2 * j) for j in range(4))
    return sympy.expand(total).coeff(t, 12)


def _truncated_exp(exponent, t, degree):
    """exp(exponent) through t^degree; exponent has no term below t^4."""
    import sympy

    out = sympy.Integer(1)
    power = sympy.Integer(1)
    for j in range(1, degree // 4 + 1):
        power = sympy.expand(power * exponent)
        out += power / math.factorial(j)
    return out


def parse_poly(text):
    """A charmod polynomial string (``1/1296*x^3 - ...``) as sympy."""
    import sympy

    p1, p2, p3, c, x, _ = _symbols()
    names = {"p1": p1, "p2": p2, "p3": p3, "c": c, "x": x}
    return sympy.sympify(text.replace("^", "**"), locals=names)


def check_registry(reports, ids, order):
    """Every requested id passes, in request order, with nothing to show.

    Each ``fact_*`` multiplier must equal the sympy multiplier and be
    nonzero, so a pass on 0 = 0 is rejected.
    """
    import sympy

    problems = []
    got = [r.get("id") for r in reports]
    if got != list(ids):
        return ["ids %s, expected %s" % (got, list(ids))]
    for report in reports:
        rid = report["id"]
        if report.get("status") != "pass":
            problems.append("%s: status %r" % (rid, report.get("status")))
        if report.get("witness") != "":
            problems.append("%s: witness %r" % (rid, report.get("witness")))
        if report.get("order") != order:
            problems.append("%s: order %r, expected %d" % (rid, report.get("order"), order))
        if rid in FACT_CLASSES:
            text = report.get("data", {}).get("multiplier")
            if text is None:
                problems.append("%s: no multiplier" % rid)
                continue
            expected = fact_multiplier(rid)
            if expected == 0 or sympy.expand(parse_poly(text) - expected) != 0:
                problems.append("%s: multiplier %s, expected %s" % (rid, text, expected))
    return problems


# ----------------------------------------------------------------------
# the e8 comparison
# ----------------------------------------------------------------------


def sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def e4_row(order):
    return [1] + [240 * sigma(3, n) for n in range(1, order + 1)]


def character_row(order):
    """E4 / phi^8 with plain ints; phi^8 has constant term 1."""
    phi8 = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(8):
            for k in range(order, n - 1, -1):
                phi8[k] -= phi8[k - n]
    numerator = e4_row(order)
    out = []
    for n in range(order + 1):
        out.append(numerator[n] - sum(phi8[j] * out[n - j] for j in range(1, n + 1)))
    return out


E8_ROWS = ("lattice theta", "eighth-power sum", "weight-4 form", "character")


def parse_e8(text):
    rows = {}
    for line in text.splitlines():
        label, _, value = line.partition(":")
        rows[label.strip()] = value.strip()
    return rows


def check_e8(text, order):
    rows = parse_e8(text)
    problems = []
    expected = {label: e4_row(order) for label in E8_ROWS[:3]}
    expected["character"] = character_row(order)
    for label, want in expected.items():
        try:
            got = [int(v) for v in rows[label].strip("[]").split(",")]
        except (KeyError, ValueError):
            problems.append("e8: no %s row" % label)
            continue
        if got != want:
            problems.append("e8 %s: %s, expected %s" % (label, got, want))
    if rows.get("equal") != "true":
        problems.append("e8: equal is %r" % rows.get("equal"))
    return problems


# ----------------------------------------------------------------------
# numeric theta checks
# ----------------------------------------------------------------------


def check_theta(report, kind, tol):
    problems = []
    if report.get("kind") != kind:
        problems.append("theta-check: kind %r, expected %r" % (report.get("kind"), kind))
    if report.get("passed") is not True:
        problems.append("theta-check %s: passed is %r" % (kind, report.get("passed")))
    for key in ("shift_residual", "inversion_residual"):
        value = report.get(key)
        if not isinstance(value, float) or not math.isfinite(value) or value > tol:
            problems.append("theta-check %s: %s = %r" % (kind, key, value))
    return problems


# ----------------------------------------------------------------------
# cubic forms
# ----------------------------------------------------------------------


def trilinear(tensor, x, y, z):
    n = len(tensor)
    return sum(
        tensor[i][j][k] * x[i] * y[j] * z[k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def is_characteristic(tensor, a):
    """T(a,x,y) = T(x,x,y) + T(x,y,y) mod 2 for every x, y in (Z/2)^n."""
    cube = list(itertools.product((0, 1), repeat=len(tensor)))
    return all(
        (trilinear(tensor, a, x, y) - trilinear(tensor, x, x, y) - trilinear(tensor, x, y, y)) % 2 == 0
        for x in cube
        for y in cube
    )


def difference_points(rank):
    """The points x >= 0 with |x| <= 3.

    A cubic integer polynomial is a Z-combination of binomials C(x, k),
    |k| <= 3, whose coefficients are integer forward differences of its
    values at exactly these points.  So it vanishes mod m on all of Z^n,
    and on (Z/m)^n in particular, iff it vanishes mod m here.
    """
    return [x for x in itertools.product(range(4), repeat=rank) if sum(x) <= 3]


def bhat_defect(tensor, a, bhat, modulus):
    """The first x where 4x^3 + 6ax^2 + 3a^2x - bhat.x is nonzero mod m."""
    for x in difference_points(len(tensor)):
        value = (
            4 * trilinear(tensor, x, x, x)
            + 6 * trilinear(tensor, a, x, x)
            + 3 * trilinear(tensor, a, a, x)
            - sum(b * v for b, v in zip(bhat, x))
        )
        if value % modulus:
            return list(x)
    return None


def check_bhat(tensor, a, bhat, modulus):
    if bhat is None or len(bhat) != len(tensor):
        return ["a=%s mod %d: bhat %r" % (list(a), modulus, bhat)]
    x = bhat_defect(tensor, a, bhat, modulus)
    if x is not None:
        return ["a=%s mod %d: bhat %s has a defect at x=%s" % (list(a), modulus, bhat, x)]
    return []


def check_relations(report, bhat):
    """check_cubic_relations at a characteristic a with b = bhat."""
    problems = []
    if report.get("characteristic") is not True:
        problems.append("relations: characteristic is %r" % report.get("characteristic"))
    if report.get("b") != list(bhat):
        problems.append("relations: b %r, expected %s" % (report.get("b"), list(bhat)))
    for key in ("half_sum", "refine48", "refine24"):
        part = report.get(key, {})
        if part.get("passed") is not True or part.get("witness") is not None:
            problems.append("relations: %s %r" % (key, part))
    if report.get("passed") is not True:
        problems.append("relations: passed is %r" % report.get("passed"))
    return problems


def check_refinement(report):
    if report.get("passed") is not True or report.get("witness") is not None:
        return ["refinement: %r" % (report,)]
    return []


def check_sweep_form(result, tensor, pick):
    """One form of the lattice sweep; see sweep.py for the calls made."""
    rank = len(tensor)
    problems = []
    if result.get("tensor") != tensor:
        return ["sweep: result for another tensor"]
    flags = result.get("characteristic", {})
    for parity in itertools.product((0, 1), repeat=rank):
        want = is_characteristic(tensor, parity)
        if flags.get(str(list(parity))) is not want:
            problems.append("tensor %s: characteristic(%s) is %r" % (tensor, list(parity), flags.get(str(list(parity)))))
    classes = sorted(
        str(list(a))
        for a in itertools.product(range(8), repeat=rank)
        if is_characteristic(tensor, [v % 2 for v in a])
    )
    bhat24 = result.get("bhat24", {})
    if sorted(bhat24) != classes:
        problems.append("tensor %s: bhat for classes %s" % (tensor, sorted(bhat24)))
    for key, bhat in bhat24.items():
        problems += check_bhat(tensor, [int(v) for v in key.strip("[]").split(",")], bhat, 24)
    problems += check_bhat(tensor, [0] * rank, result.get("bhat3"), 3)
    if classes:
        a = [int(v) for v in classes[pick % len(classes)].strip("[]").split(",")]
        if result.get("relations_a") != a:
            problems.append("tensor %s: relations at %r" % (tensor, result.get("relations_a")))
        else:
            problems += check_relations(result.get("relations", {}), bhat24.get(str(a)))
    problems += check_refinement(result.get("refinement", {}))
    return problems


def check_lattice_report(report, tensor, a):
    """``charmod lattice --format json`` on a file with characteristic a."""
    problems = []
    if report.get("characteristic") is not True or not is_characteristic(tensor, a):
        problems.append("lattice: characteristic is %r" % report.get("characteristic"))
    problems += check_bhat(tensor, a, report.get("bhat"), 24)
    if not problems:
        problems += check_relations(report.get("relations", {}), report["bhat"])
    if report.get("passed") is not True:
        problems.append("lattice: passed is %r" % report.get("passed"))
    return problems
