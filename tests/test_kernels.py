"""The exact arithmetic kernels against the plain algorithms they replaced.

Each oracle is the textbook route: exp as the sum of the powers of the tail
series, a graded-polynomial product and a ring's sum of products as a dict
of Fraction products, a series product and inverse as the per-pair loops
with one product and one sum per term pair, and a series power as repeated
multiplication.  Every comparison has a negative control: the oracle's
result with one coefficient shifted must not compare equal to the kernel's.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmod import charring, exactmath
from charmod.charring import GradedPoly, PolyRing, _poly
from charmod.exactmath import GRID, QExpSeries, RAT_RING, RatRing, qs_exp, qs_inv, qs_mul

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


@pytest.mark.parametrize("step", [1, 5, 7])
def test_exp_matches_power_sum_on_a_support_step(step):
    # k steps by the gcd of the exponents, which need not divide 24
    a = QExpSeries(RAT_RING, 2, {step: Fraction(1, 3), 3 * step: Fraction(-2), 7 * step: Fraction(5, 7)})
    expected = power_sum_exp(a)
    got = qs_exp(a)
    assert got == expected
    assert got != shifted(expected)
    assert all(k % step == 0 for k in got.terms) and len(got.terms) > 3


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


# ----------------------------------------------------------------------
# ring.dot against a dict of Fraction products
# ----------------------------------------------------------------------


def naive_dot(ring, pairs):
    """Sum of a * b over the pairs, one Fraction product per term pair."""
    if ring is RAT_RING:
        return sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))
    out = {}
    for p, q in pairs:
        for e, c in naive_product(p, q).coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
    return GradedPoly(ring, out)


def bumped_poly(poly):
    """``poly`` with 1 added to the coefficient of its first monomial."""
    coeffs = dict(poly.coeffs)
    key = next(iter(coeffs), (0,) * len(poly.ring.names))
    coeffs[key] = coeffs.get(key, Fraction(0)) + 1
    return GradedPoly(poly.ring, coeffs)


poly_pairs = st.lists(st.tuples(polys, polys), max_size=4)
rationals = st.one_of(coefficients, st.integers(-30, 30))
rational_pairs = st.lists(st.tuples(rationals, rationals), max_size=8)


@given(pairs=poly_pairs)
@settings(max_examples=50, deadline=None)
def test_poly_dot_matches_fraction_products(pairs):
    expected = naive_dot(MUL_RING, pairs)
    got = MUL_RING.dot(pairs)
    assert got == expected
    assert got != bumped_poly(expected)
    # every operand keeps its cached numerators; a second pass must agree
    assert MUL_RING.dot(pairs) == expected


@given(pairs=poly_pairs)
@settings(max_examples=25, deadline=None)
def test_poly_dot_cancels_to_zero(pairs):
    opposite = [(-p, q) for p, q in pairs]
    got = MUL_RING.dot(pairs + opposite)
    assert got == MUL_RING.zero()
    assert got.is_zero()
    assert got != bumped_poly(MUL_RING.zero())


def test_poly_dot_mixed_denominators_across_the_cap():
    g = MUL_RING.gens()
    a, b, c = g["a"], g["b"], g["c"]
    p = a * Fraction(1, 6) - b * Fraction(3, 10) + c * Fraction(-5, 14) + Fraction(7, 9)
    q = a * a * Fraction(-2, 15) + b * c * Fraction(1, 4) + a * Fraction(11, 21)
    r = c * c * Fraction(-13, 33) + b * Fraction(5, 8) - 3
    pairs = [(p, q), (q, r), (r, r), (b * c, c)]  # b*c*c is past the cap
    expected = naive_dot(MUL_RING, pairs)
    assert MUL_RING.dot(pairs) == expected
    assert MUL_RING.dot(pairs) != expected + a * Fraction(1, 1000)


def test_dot_of_no_pairs_is_zero():
    assert MUL_RING.dot([]) == MUL_RING.zero()
    assert MUL_RING.dot([]) != MUL_RING.one()
    got = RAT_RING.dot([])
    assert isinstance(got, Fraction) and got == RAT_RING.zero()
    assert got != RAT_RING.one()


@given(pairs=rational_pairs)
@settings(max_examples=80, deadline=None)
def test_rational_dot_matches_fraction_products(pairs):
    expected = naive_dot(RAT_RING, pairs)
    got = RAT_RING.dot(pairs)
    assert isinstance(got, Fraction)
    assert got == expected
    assert got != expected + 1


@given(pairs=rational_pairs)
@settings(max_examples=30, deadline=None)
def test_rational_dot_cancels_to_zero(pairs):
    got = RAT_RING.dot(pairs + [(-a, b) for a, b in pairs])
    assert got == 0 and got.denominator == 1
    assert got != 1


# ----------------------------------------------------------------------
# qs_mul and qs_inv against the per-pair loops
# ----------------------------------------------------------------------


def coefficient_product(ring, x, y):
    return x * y if ring is RAT_RING else naive_product(x, y)


def plain_qs_mul(a, b):
    """Double loop over term pairs: one product and one sum per pair."""
    order = min(a.order, b.order)
    limit = GRID * order
    terms = {}
    for ka, ca in a.terms.items():
        if ka > limit:
            continue
        for kb, cb in b.terms.items():
            k = ka + kb
            if k > limit:
                continue
            prod = coefficient_product(a.ring, ca, cb)
            if k in terms:
                terms[k] = terms[k] + prod
            else:
                terms[k] = prod
    return QExpSeries(a.ring, order, terms)


def plain_qs_inv(a):
    """b_n = -a_0^{-1} * sum_{j>=1} a_j b_{n-j}, one product per term."""
    ring = a.ring
    coeffs = a.as_q_coeffs()
    inv0 = Fraction(1) / coeffs[0] if ring is RAT_RING else coeffs[0].inverse()
    out = [inv0]
    for n in range(1, a.order + 1):
        acc = ring.zero()
        for j in range(1, n + 1):
            acc = acc + coefficient_product(ring, coeffs[j], out[n - j])
        out.append(-coefficient_product(ring, inv0, acc))
    return QExpSeries.from_q_coeffs(ring, a.order, out)


MUL_CASES = {
    # half-step support, unequal orders
    "rational": lambda: (rational_base(), rational_exponent(7)),
    "rational-square": lambda: (rational_exponent(24), rational_exponent(24)),
    "poly": lambda: (poly_base(), poly_exponent(5)),
    "poly-long": lambda: (poly_exponent(6), qs_exp(poly_exponent(4))),
}


@pytest.mark.parametrize("case", sorted(MUL_CASES))
def test_qs_mul_matches_pair_loop(case):
    a, b = MUL_CASES[case]()
    expected = plain_qs_mul(a, b)
    assert expected.order == min(a.order, b.order)
    for got in (qs_mul(a, b), qs_mul(b, a)):
        assert got == expected
        assert got != shifted(expected)


grid_terms = st.dictionaries(st.integers(0, GRID * 3), rationals, max_size=10)


@given(ta=grid_terms, tb=grid_terms, oa=st.integers(0, 3), ob=st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_qs_mul_matches_pair_loop_on_random_series(ta, tb, oa, ob):
    a, b = QExpSeries(RAT_RING, oa, ta), QExpSeries(RAT_RING, ob, tb)
    expected = plain_qs_mul(a, b)
    got = qs_mul(a, b)
    assert got == expected
    assert got != shifted(expected)


# ----------------------------------------------------------------------
# the packed qs_mul kernel: slots, borrows, widths and supports
# ----------------------------------------------------------------------

BIG = 2 ** 200


def series(ring, order, coeffs, step=GRID):
    """Series with ``coeffs[i]`` at q**(i * step / 24); rationals are lifted
    to constants of a polynomial ring."""
    lift = ring.constant if isinstance(ring, PolyRing) else Fraction
    return QExpSeries(ring, order, {
        i * step: lift(c) if isinstance(c, (int, Fraction)) else c for i, c in enumerate(coeffs)
    })


def stepped(ring, step, order, seed):
    """Coefficients at every multiple of ``step`` up to one past the order's
    grid exponent, of mixed signs, denominators and sizes."""
    rng = random.Random(seed)
    u, v = POLY_RING.gen("u"), POLY_RING.gen("v")
    coeffs = []
    for _ in range(GRID * order // step + 2):
        c = Fraction(rng.choice([-1, 1]) * rng.randrange(1, BIG), rng.randrange(1, 40))
        coeffs.append(c if ring is RAT_RING else c * u - Fraction(rng.randrange(-9, 9), 7) * v + c * c)
    return series(ring, order, coeffs, step)


def assert_packed_product(a, b):
    """qs_mul(a, b) and qs_mul(b, a) equal the pair loop's product, hash as
    it, and hold rationals as Fractions; the shifted oracle differs."""
    expected = plain_qs_mul(a, b)
    for got in (qs_mul(a, b), qs_mul(b, a)):
        assert got == expected
        for k, c in got.terms.items():
            assert hash(c) == hash(expected.terms[k])
            assert isinstance(c, Fraction if a.ring is RAT_RING else GradedPoly)
        assert got != shifted(expected)
    return expected


def _packed_cases():
    u, v = POLY_RING.gen("u"), POLY_RING.gen("v")
    return {
        # numerators past 2**200, of both signs, in one column and across columns
        "big-rat": (series(RAT_RING, 3, [BIG + 1, Fraction(-BIG, 7), -(BIG ** 2), 3 ** 130]),
                    series(RAT_RING, 3, [Fraction(BIG - 1, 3), -BIG, 1, -(3 ** 130)])),
        "big-poly": (series(POLY_RING, 3, [BIG + 1 - u * 3 ** 130, v * Fraction(-BIG, 7) + u * u * BIG, -(BIG ** 2)]),
                     series(POLY_RING, 3, [u * Fraction(BIG - 1, 3) - v * BIG, 1, v * 5 - BIG, u * BIG])),
        # every slot of one factor negative, so every product slot borrows
        "negative-run-rat": (series(RAT_RING, 5, [-(2 ** 70) - 1] * 6), series(RAT_RING, 5, [1] * 6)),
        "negative-run-poly": (series(POLY_RING, 5, [-(u * 2 ** 70) - 1] * 6), series(POLY_RING, 5, [u + 3] * 6)),
        # runs of negative slots between positive ones
        "sign-runs": (series(RAT_RING, 6, [5, -1, -2, -3, 4, -BIG, -BIG]), series(RAT_RING, 6, [1, 1, -1])),
        # slot 1 cancels to 0: (1 + q)(1 - q), the q^2 slot truncated at order 1
        "cancel-slot": (series(RAT_RING, 1, [1, 1]), series(RAT_RING, 1, [1, -1])),
        # slot 1 is (u + v)^2 + (u - v)^2, whose u*v monomial cancels
        "cancel-monomial": (series(POLY_RING, 2, [u + v, u - v]), series(POLY_RING, 2, [u - v, u + v])),
        # slot 1 of u^2 (1 + q)(1 - q) cancels between two slot pairs
        "cancel-slot-poly": (series(POLY_RING, 2, [u, u]), series(POLY_RING, 2, [u, -u])),
        # every monomial product past the cap: nonzero factors, zero product
        "past-cap": (series(POLY_RING, 2, [u * v, v * v]), series(POLY_RING, 2, [v, u * u])),
        # one denominator per q-coefficient
        "mixed-den-rat": (series(RAT_RING, 3, [Fraction(1, 6), Fraction(-5, 14), Fraction(7, 9), Fraction(11, 60)]),
                          series(RAT_RING, 3, [Fraction(-3, 10), 0, Fraction(13, 33)])),
        "mixed-den-poly": (series(POLY_RING, 3, [u * Fraction(1, 6) + Fraction(7, 9), v * Fraction(-5, 14), Fraction(11, 60)]),
                           series(POLY_RING, 3, [Fraction(-3, 10), u * Fraction(13, 33) - v * Fraction(1, 8)])),
        # unequal orders and supports on different lattices: step 4 overall
        "steps-8-12": (stepped(POLY_RING, 8, 2, 1), stepped(POLY_RING, 12, 3, 2)),
        "steps-3-rat": (stepped(RAT_RING, 3, 2, 3), stepped(RAT_RING, 24, 4, 4)),
    }


@pytest.mark.parametrize("case", sorted(_packed_cases()))
def test_packed_qs_mul_matches_pair_loop(case):
    a, b = _packed_cases()[case]
    expected = assert_packed_product(a, b)
    u, v = POLY_RING.gen("u"), POLY_RING.gen("v")
    if case == "cancel-slot":
        assert expected.terms == {0: 1}
    if case == "cancel-slot-poly":
        assert sorted(expected.terms) == [0, 2 * GRID]
    if case == "cancel-monomial":
        assert expected.terms[GRID] == 2 * u * u + 2 * v * v
    if case == "past-cap":
        assert expected.is_zero()


@pytest.mark.parametrize("ring", [RAT_RING, POLY_RING], ids=["rational", "poly"])
@pytest.mark.parametrize("step", [1, 3, 8, 12])
def test_packed_qs_mul_on_each_support_step(ring, step):
    a, b = stepped(ring, step, 2, step), stepped(ring, step, 2, step + 100)
    expected = assert_packed_product(a, b)
    assert all(k % step == 0 for k in expected.terms)
    assert any(k % (2 * step) for k in expected.terms)


@pytest.mark.parametrize("ring", [RAT_RING, POLY_RING], ids=["rational", "poly"])
def test_packed_qs_mul_at_order_0_and_by_zero(ring):
    a, b = stepped(ring, 1, 0, 5), stepped(ring, 1, 2, 6)
    assert len(a.terms) == 1
    assert_packed_product(a, a)
    assert assert_packed_product(a, b).order == 0
    zero = QExpSeries.zero(ring, 2)
    for other in (b, zero):
        assert qs_mul(zero, other) == zero and qs_mul(other, zero) == zero
        assert qs_mul(zero, other).terms == {}


@pytest.mark.parametrize("ring", [RAT_RING, POLY_RING], ids=["rational", "poly"])
def test_a_slot_two_bits_narrower_wraps(monkeypatch, ring):
    # slot 1 of the square is 2 (2**64 - 1)**2, past the 129-bit signed
    # field W - 2 leaves (one column, three slots: W = 64 + 64 + 2 + 1)
    top = 2 ** 64 - 1
    coeff = top if ring is RAT_RING else POLY_RING.gen("u") * top
    a = series(ring, 2, [coeff] * 3)
    expected = assert_packed_product(a, a)
    width = exactmath._slot_width
    monkeypatch.setattr(exactmath, "_slot_width", lambda *args: width(*args) - 2)
    assert qs_mul(a, a) != expected


def test_qs_mul_calls_no_dot(monkeypatch):
    pairs = [_packed_cases()[case] for case in ("big-rat", "big-poly")]
    expected = [plain_qs_mul(a, b) for a, b in pairs]

    def no_dot(*args):
        raise AssertionError("qs_mul called ring.dot")

    monkeypatch.setattr(PolyRing, "dot", no_dot)
    monkeypatch.setattr(RatRing, "dot", staticmethod(no_dot))
    assert [qs_mul(a, b) for a, b in pairs] == expected


poly_grid_terms = st.dictionaries(st.integers(0, GRID * 2), polys, max_size=6)


@given(ta=poly_grid_terms, tb=poly_grid_terms, oa=st.integers(0, 2), ob=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_qs_mul_matches_pair_loop_on_random_poly_series(ta, tb, oa, ob):
    a, b = QExpSeries(MUL_RING, oa, ta), QExpSeries(MUL_RING, ob, tb)
    expected = plain_qs_mul(a, b)
    got = qs_mul(a, b)
    assert got == expected
    assert all(hash(c) == hash(expected.terms[k]) for k, c in got.terms.items())
    assert got != shifted(expected)


INV_CASES = {
    "rational": lambda: QExpSeries.from_q_coeffs(
        RAT_RING, 9, [Fraction(3, 2), 0, Fraction(-5, 7), 4, 0, 0, Fraction(1, 9)]
    ),
    "poly": lambda: QExpSeries.from_q_coeffs(
        POLY_RING,
        4,
        [Fraction(2) + POLY_RING.gen("u"), 0, POLY_RING.gen("v") * Fraction(1, 3) - 1, POLY_RING.gen("u")],
    ),
}


@pytest.mark.parametrize("case", sorted(INV_CASES))
def test_qs_inv_matches_pair_loop(case):
    a = INV_CASES[case]()
    expected = plain_qs_inv(a)
    got = qs_inv(a)
    assert got == expected
    assert got != shifted(expected)
    assert plain_qs_mul(a, got) == QExpSeries.one(a.ring, a.order)


# ----------------------------------------------------------------------
# packed GradedPoly against a dict-of-Fraction model
# ----------------------------------------------------------------------


def model_degree(ring, exps):
    return sum(e * ring.degrees[n] for n, e in zip(ring.names, exps))


def model(ring, terms):
    """``terms`` as {exponent tuple: Fraction}, zeros and terms past the cap dropped."""
    return {e: Fraction(c) for e, c in terms.items() if c != 0 and model_degree(ring, e) <= ring.cap}


def model_sum(ring, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return model(ring, out)


def model_dot(ring, pairs):
    out = {}
    for a, b in pairs:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return model(ring, out)


def bumped_model(terms, width):
    """``terms`` with 1 added to the coefficient of its first monomial."""
    out = dict(terms)
    key = next(iter(out), (0,) * width)
    out[key] = out.get(key, Fraction(0)) + 1
    return out


@st.composite
def packed_cases(draw):
    """A ring with a random cap in 12..40 and a degree-2 generator, and two
    term dicts whose exponents reach one past what the cap allows."""
    cap = draw(st.integers(12, 40))
    degrees = [2] + draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    ring = PolyRing({"g%d" % i: d for i, d in enumerate(degrees)}, cap=cap)
    exps = st.tuples(*[st.integers(0, cap // d + 1) for d in degrees])
    terms = st.dictionaries(exps, coefficients, max_size=10)
    return ring, draw(terms), draw(terms)


@given(case=packed_cases(), scalar=rationals)
@settings(max_examples=150, deadline=None)
def test_packed_poly_matches_fraction_model(case, scalar):
    ring, ta, tb = case
    p, q = GradedPoly(ring, ta), GradedPoly(ring, tb)
    a, b = model(ring, ta), model(ring, tb)
    width = len(ring.names)
    checks = [
        (p, a),
        (p + q, model_sum(ring, a, b)),
        (p - q, model_sum(ring, a, {e: -c for e, c in b.items()})),
        (-p, {e: -c for e, c in a.items()}),
        (p * scalar, model(ring, {e: c * scalar for e, c in a.items()})),
        (p * q, model_dot(ring, [(a, b)])),
        (ring.dot([(p, q), (q, q), (p, p)]), model_dot(ring, [(a, b), (b, b), (a, a)])),
    ] + [
        (p.homogeneous_part(d), {e: c for e, c in a.items() if model_degree(ring, e) == d})
        for d in range(ring.cap + 1)
    ]
    for got, expected in checks:
        assert got.coeffs == expected
        assert got.coeffs != bumped_model(expected, width)
        rebuilt = GradedPoly(ring, expected)
        assert got == rebuilt and hash(got) == hash(rebuilt)
        assert got != GradedPoly(ring, bumped_model(expected, width))
    # the public view lists monomials by degree, then by exponent tuple
    assert list(p.coeffs) == sorted(a, key=lambda e: (model_degree(ring, e), e))
    degrees = {model_degree(ring, e) for e in a}
    assert {d for d in range(ring.cap + 1) if not p.homogeneous_part(d).is_zero()} == degrees
    for d in range(ring.cap + 1):
        assert p.is_homogeneous(d) == (degrees <= {d})
    constant = a.get((0,) * width, Fraction(0))
    assert p.constant_term() == constant
    assert p.constant_term() != constant + 1


@pytest.mark.parametrize("cap", [12, 13, 14, 15, 30, 31, 40])
def test_product_at_the_cap_is_kept_and_one_past_it_dropped(cap):
    # caps 14, 15, 30 and 31 fill some exponent field to its last bit, so a
    # product one past the cap would carry into the next field if kept
    ring = PolyRing({"u": 1, "c": 2, "x": 4}, cap=cap)
    g = ring.gens()
    for name, degree in ring.degrees.items():
        top = cap // degree
        fill = cap - top * degree
        half = top // 2
        left = g[name] ** half * g["u"] ** fill
        right = g[name] ** (top - half)
        at_cap = left * right
        assert not at_cap.homogeneous_part(cap).is_zero()
        assert at_cap.monomial_coefficient(**{name: top, "u": fill + top * (name == "u")}) == 1
        assert len(at_cap.coeffs) == 1
        assert (at_cap * g["u"]).is_zero()
        assert (left * g[name] * right).is_zero()
        assert ring.dot([(left, right), (left * g[name], right), (left, right * g["u"])]) == at_cap
        assert ring.dot([(left, right)]) != ring.zero()


def test_equal_polys_built_by_different_routes_hash_equal():
    g = MUL_RING.gens()
    a, b, c = g["a"], g["b"], g["c"]
    p = a * Fraction(1, 6) - b * Fraction(3, 10) + c * Fraction(-5, 14) + Fraction(7, 9)
    q = a * a * Fraction(-2, 15) + b * c * Fraction(1, 4) + c * Fraction(5, 14) + Fraction(2, 9)
    routes = [
        (p + q) - q,
        -(q - (p + q)),
        p * Fraction(3, 7) * Fraction(7, 3),
        (p * 2 + q * 3 - q * 3) / 2,
        GradedPoly(MUL_RING, dict(reversed(list(p.coeffs.items())))),
        MUL_RING.dot([(p, MUL_RING.one()), (q, a), (-q, a)]),
    ]
    for route in routes:
        assert route == p and hash(route) == hash(p)
    assert len({p, *routes}) == 1
    assert p + q != q + p + a * Fraction(1, 1000)
    assert ((p + q) - q - p) == MUL_RING.zero()
    assert hash((p + q) - q - p) == hash(MUL_RING.zero())


# ----------------------------------------------------------------------
# normal forms built directly against `_poly` and the Fraction model
# ----------------------------------------------------------------------


def assert_normal(got, ring, den, nums, expected):
    """``got`` equals, and hashes as, both `_poly` of (den, nums) and the
    element of the model ``expected``, and is in normal form itself."""
    for other in (_poly(ring, den, nums), GradedPoly(ring, expected)):
        assert got == other and hash(got) == hash(other)
    assert got.coeffs == expected
    assert got.den > 0 and gcd(got.den, *got.nums.values()) == 1
    assert list(got.nums) == sorted(got.nums) and all(got.nums.values())


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def scalar_products(draw):
    """A polynomial with a common factor in its numerators, and a scalar
    p/q whose p is a multiple of a divisor of the polynomial's den and q of
    a divisor of its content, so the gcd step has factors on both sides;
    p may be negative."""
    common = Fraction(draw(st.integers(1, 36)), draw(st.integers(1, 60)))
    exps = draw(st.lists(exponents, min_size=1, max_size=8, unique=True))
    poly = GradedPoly(MUL_RING, {e: draw(st.integers(-20, 20)) * common for e in exps})
    p = draw(st.sampled_from(_divisors(poly.den))) * draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
    q = draw(st.sampled_from(_divisors(gcd(*poly.nums.values()) or 1))) * draw(st.integers(1, 6))
    return poly, Fraction(p, q)


@given(case=scalar_products(), other=coefficients)
@settings(max_examples=200, deadline=None)
def test_scalar_product_normal_form_matches_poly_and_model(case, other):
    poly, scalar = case
    for s in (scalar, -scalar, scalar.numerator, 0, other):
        expected = model(MUL_RING, {e: c * s for e, c in poly.coeffs.items()})
        nums = {k: n * Fraction(s).numerator for k, n in poly.nums.items()}
        for got in (poly * s, s * poly):
            assert_normal(got, MUL_RING, poly.den * Fraction(s).denominator, nums, expected)
    if scalar:
        inverse = 1 / scalar
        assert_normal(poly / scalar, MUL_RING, poly.den * inverse.denominator,
                      {k: n * inverse.numerator for k, n in poly.nums.items()},
                      model(MUL_RING, {e: c * inverse for e, c in poly.coeffs.items()}))


@given(poly=polys)
@settings(max_examples=100, deadline=None)
def test_negation_normal_form_matches_poly_and_model(poly):
    expected = {e: -c for e, c in poly.coeffs.items()}
    assert_normal(-poly, MUL_RING, poly.den, {k: -n for k, n in poly.nums.items()}, expected)


@given(value=coefficients | st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_constant_normal_form_matches_poly_and_model(value):
    value = Fraction(value)
    expected = model(MUL_RING, {(0, 0, 0): value})
    assert_normal(MUL_RING.constant(value), MUL_RING, value.denominator, {0: value.numerator}, expected)


def test_constants_zero_and_one_are_normal():
    assert_normal(MUL_RING.constant(0), MUL_RING, 1, {}, {})
    assert_normal(MUL_RING.constant(Fraction(0, 7)), MUL_RING, 7, {0: 0}, {})
    assert_normal(MUL_RING.zero(), MUL_RING, 5, {}, {})
    assert_normal(MUL_RING.one(), MUL_RING, 3, {0: 3}, {(0, 0, 0): Fraction(1)})


def test_a_scalar_product_that_skips_its_gcd_step_differs(monkeypatch):
    # the control: den 3 shares 3 with p and the content 2 shares 2 with
    # q, so an unreduced (6, {6, 12}) must not compare equal to (1, {1, 2})
    g = MUL_RING.gens()
    poly = g["a"] * Fraction(2, 3) + g["b"] * Fraction(4, 3)
    assert (poly.den, list(poly.nums.values())) == (3, [2, 4])
    expected = g["a"] + 2 * g["b"]
    assert poly * Fraction(3, 2) == expected
    monkeypatch.setattr(charring, "gcd", lambda *args: 1)
    skipped = poly * Fraction(3, 2)
    assert skipped.coeffs == expected.coeffs
    assert skipped != expected
