"""Exact truncated q-series arithmetic on a 1/24 exponent grid.

A series here is a finite sum ``sum_k a_k * q**(k/24)`` with integer grid
exponents ``0 <= k <= 24*order``, where ``order`` counts whole powers of q.
Coefficients live in an exact commutative ring: `fractions.Fraction` scalars
(via `RAT_RING`) or any caller-supplied ring object exposing ``zero()``,
``one()``, a hashable ``key``, the sum-of-products kernel ``dot(pairs)``
and the packed view of `qs_mul`.  No floats ever enter these code paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm

#: Denominator of the exponent grid.  Every exponent is k/GRID with k an
#: integer, which accommodates q**(1/24), q**(1/8) and q**(1/2) exactly.
GRID = 24


class ArgumentError(ValueError):
    """An argument is outside the supported range."""


class RingMismatchError(TypeError):
    """Two series over different coefficient rings were combined."""


class GridError(ValueError):
    """An operation required whole-q exponents but met fractional ones."""


class NotInvertible(ArithmeticError):
    """A series (or coefficient) has no inverse in the truncated ring."""


class NotExponentiable(ArithmeticError):
    """The q^0 coefficient violates an exp/log precondition."""


class RatRing:
    """Coefficient ring of exact rationals."""

    key = "rat"
    _limit = 1  # the packed view of `qs_mul`: one monomial, key 0, no cap
    packed = staticmethod(lambda f: (f.denominator, {0: f.numerator}))
    from_packed = staticmethod(lambda den, nums: Fraction(nums.get(0, 0), den))

    @staticmethod
    def zero():
        return Fraction(0)

    @staticmethod
    def one():
        return Fraction(1)

    @staticmethod
    def dot(pairs):
        """Sum of ``a * b`` over the ``(a, b)`` pairs of rationals.

        Sums plain-int numerator products over the lcm of the denominator
        products, so the result is the only Fraction built.
        """
        products = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in pairs]
        den = reduce(lcm, (d for _, d in products), 1)
        return Fraction(sum(n * (den // d) for n, d in products), den)


RAT_RING = RatRing()


def _coeff_inverse(coeff):
    """Invert a coefficient: rationals directly, ring elements via .inverse()."""
    if isinstance(coeff, (Fraction, int)):
        if coeff == 0:
            raise NotInvertible("zero coefficient has no inverse")
        return Fraction(1) / coeff
    return coeff.inverse()


def _coeff_constant_term(coeff):
    """Rational part of a coefficient (the coefficient itself for scalars)."""
    if isinstance(coeff, (Fraction, int)):
        return Fraction(coeff)
    return coeff.constant_term()


class QExpSeries:
    """Truncated q-expansion with exact coefficients.

    ``terms`` maps integer grid exponents (units of 1/24 of a whole q power)
    to nonzero coefficients.  Binary operations require identical coefficient
    rings and truncate to the smaller order.
    """

    __slots__ = ("ring", "order", "terms")

    def __init__(self, ring, order, terms=None):
        order = int(order)
        if order < 0:
            raise ArgumentError("the series order must be at least 0, got %d" % order)
        self.ring = ring
        self.order = order
        clean = {}
        if terms:
            zero = ring.zero()
            limit = GRID * order
            for k, coeff in terms.items():
                k = int(k)
                if k < 0:
                    raise GridError("negative exponent %d/%d" % (k, GRID))
                if k > limit:
                    continue
                if coeff != zero:
                    clean[k] = coeff
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, ring, order):
        return cls(ring, order)

    @classmethod
    def one(cls, ring, order):
        return cls(ring, order, {0: ring.one()})

    @classmethod
    def from_q_coeffs(cls, ring, order, coeffs):
        """Series from a list of whole-power coefficients [a_0, a_1, ...]."""
        return cls(ring, order, {GRID * n: c for n, c in enumerate(coeffs)})

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def coefficient(self, exponent):
        """Coefficient of q**exponent; exponent is an int or Fraction."""
        k = Fraction(exponent) * GRID
        if k.denominator != 1:
            raise GridError("exponent %s is off the 1/%d grid" % (exponent, GRID))
        return self.terms.get(int(k), self.ring.zero())

    def is_zero(self):
        return not self.terms

    def has_whole_support(self):
        return all(k % GRID == 0 for k in self.terms)

    def as_q_coeffs(self):
        """List [a_0, ..., a_order]; raises GridError on fractional support."""
        if not self.has_whole_support():
            raise GridError("series has exponents off the whole-q grid")
        zero = self.ring.zero()
        return [self.terms.get(GRID * n, zero) for n in range(self.order + 1)]

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _require_same_ring(self, other):
        if not isinstance(other, QExpSeries):
            raise RingMismatchError("expected a QExpSeries, got %r" % type(other))
        if other.ring.key != self.ring.key:
            raise RingMismatchError(
                "coefficient rings differ: %r vs %r" % (self.ring.key, other.ring.key)
            )

    def __add__(self, other):
        self._require_same_ring(other)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        zero = self.ring.zero()
        for k, coeff in other.terms.items():
            terms[k] = terms.get(k, zero) + coeff
        return QExpSeries(self.ring, order, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QExpSeries(self.ring, self.order, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        return qs_mul(self, other)

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative series powers go through qs_inv")
        return _power(self, exponent, QExpSeries.one(self.ring, self.order))

    def scale(self, coeff):
        """Multiply every coefficient by a fixed ring element or rational."""
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        return QExpSeries(self.ring, self.order, {k: c * coeff for k, c in self.terms.items()})

    def q_shift(self, grid_exponent):
        """Multiply by q**(grid_exponent/24)."""
        shift = int(grid_exponent)
        if shift < 0:
            raise GridError("negative shifts would leave the grid")
        return QExpSeries(self.ring, self.order, {k + shift: c for k, c in self.terms.items()})

    def truncate(self, order):
        order = int(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QExpSeries(self.ring, order, self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, QExpSeries)
            and other.ring.key == self.ring.key
            and other.order == self.order
            and other.terms == self.terms
        )

    def __repr__(self):
        return "QExpSeries(order=%d, terms=%r)" % (self.order, dict(sorted(self.terms.items())))


def _power(base, exponent, one):
    """``base ** exponent`` for an exponent >= 0 by square-and-multiply,
    starting from the base at the lowest set bit, so no product by ``one``
    is made; ``one`` is returned for exponent 0.  Serves both series and
    `GradedPoly` powers."""
    out = None
    while exponent:
        if exponent & 1:
            out = base if out is None else out * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if out is None else out


def _slot_width(top_a, top_b, terms):
    """Bits W per slot of a packed product.  A slot sums at most ``terms``
    products of numerators of size at most ``top_a`` and ``top_b``, each
    below 2**(bits(top_a) + bits(top_b)), so |slot| < 2**(W - 1) and the
    slot reads back exactly as a signed W-bit field."""
    return top_a.bit_length() + top_b.bit_length() + terms.bit_length() + 1


def _columns(series, step, top):
    """Common denominator of the coefficients at slots 0..top (exponent
    slot * step), their numerators as sorted (monomial key, {slot:
    numerator}) columns, and the largest numerator size."""
    kept = [(k // step, series.ring.packed(c)) for k, c in series.terms.items() if k <= top * step]
    den = reduce(lcm, (d for _, (d, _) in kept), 1)
    columns = {}
    for slot, (d, nums) in kept:
        for key, n in nums.items():
            columns.setdefault(key, {})[slot] = n * (den // d)
    return den, sorted(columns.items()), max((abs(n) for col in columns.values() for n in col.values()), default=0)


def qs_mul(a, b):
    """Cauchy product of two series, truncated to the smaller order, by
    Kronecker substitution over q (Harvey, "Faster polynomial multiplication
    via multipoint Kronecker substitution", 2009).  Slots are ``step``
    apart, the gcd of both supports and the order's grid exponent.  Each
    operand is one int per monomial key of its ``ring.packed`` view,
    sum_i n_i 2**(W i) over slots i, and each column pair whose key sum is
    below ``ring._limit`` is one bigint product.  Output slots read back as
    signed W-bit fields (`_slot_width`), and each coefficient is built once
    by ``ring.from_packed``.
    """
    a._require_same_ring(b)
    ring, order = a.ring, min(a.order, b.order)
    step = gcd(GRID * order, *a.terms, *b.terms) or 1
    top = GRID * order // step
    (den_a, cols_a, big_a), (den_b, cols_b, big_b) = _columns(a, step, top), _columns(b, step, top)
    width = _slot_width(big_a, big_b, (top + 1) * len(cols_a) * len(cols_b))
    right = [(key, sum(n << width * i for i, n in col.items())) for key, col in cols_b]
    sums = {}
    for k1, col in cols_a:
        x1 = sum(n << width * i for i, n in col.items())
        room = ring._limit - k1
        for k2, x2 in right:
            if k2 >= room:
                break
            sums[k1 + k2] = sums.get(k1 + k2, 0) + x1 * x2
    mask, half = (1 << width) - 1, 1 << (width - 1)
    slots = {}
    for key, x in sums.items():
        for i in range(top + 1):
            n, x = x & mask, x >> width
            if n >= half:  # a negative slot borrows one from the next
                n, x = n - (1 << width), x + 1
            if n:
                slots.setdefault(i, {})[key] = n
    return QExpSeries(ring, order, {i * step: ring.from_packed(den_a * den_b, nums) for i, nums in slots.items()})


def qs_inv(a):
    """Multiplicative inverse of a series with whole-q support and unit q^0 term.

    Uses the standard convolution recurrence b_n = -a_0^{-1} * sum_{j>=1} a_j b_{n-j}.
    """
    if not a.has_whole_support():
        raise GridError("inverse needs whole-q exponents")
    a0 = a.terms.get(0)
    if a0 is None:
        raise NotInvertible("q^0 coefficient is zero")
    inv0 = _coeff_inverse(a0)
    coeffs = a.as_q_coeffs()
    support = [j for j in range(1, a.order + 1) if GRID * j in a.terms]
    dot = a.ring.dot
    out = [inv0]
    for n in range(1, a.order + 1):
        acc = dot([(coeffs[j], out[n - j]) for j in support if j <= n])
        out.append(-(inv0 * acc))
    return QExpSeries.from_q_coeffs(a.ring, a.order, out)


def _nilpotent_sum(r, coeff):
    """sum_{j>=0} coeff(j) r^j for a nilpotent `GradedPoly` r, summed until
    the power of r vanishes.  A `GradedPoly` with zero constant term is
    nilpotent: generator degrees are positive, so its powers pass the
    ring's degree cap."""
    acc = r.ring.zero()
    power = r.ring.one()
    j = 0
    while not power.is_zero():
        acc = acc + power * coeff(j)
        power = power * r
        j += 1
    return acc


def _exp_nilpotent(element):
    """exp of a nilpotent ring element, a `GradedPoly` with zero constant
    term, as a finite sum."""
    c0 = element.constant_term()
    if c0 != 0:
        raise NotExponentiable("exp needs a zero constant term, got %s" % c0)
    return _nilpotent_sum(element, lambda j: Fraction(1, factorial(j)))


def qs_exp(a):
    """Exponential of a series whose q^0 coefficient is zero or nilpotent.

    Writes a = s0 + t with t supported on positive grid exponents.  exp(t)
    comes from the derivative recurrence of Brent & Kung ("Fast algorithms
    for manipulating formal power series", JACM 1978): b = exp(t) satisfies
    q b' = (q t') b, so b_0 = 1 and

        k b_k = sum_{j in supp t, j <= k} (j t_j) b_{k-j}

    over grid exponents (the 1/24 of each exponent cancels).  b_k is 0
    unless the gcd g of t's exponents divides k, so k steps by g: 24 steps,
    not 576, for whole-q support at order 24, and O(N^2) coefficient
    products over N steps.  exp(s0) is a finite sum because s0 is
    nilpotent, and multiplies the whole series when s0 is not 0.
    """
    ring = a.ring
    s0 = a.terms.get(0)
    if s0 is not None and _coeff_constant_term(s0) != 0:
        raise NotExponentiable("q^0 coefficient must have zero constant part")

    zero = ring.zero()
    dot = ring.dot
    scaled = [(j, c * j) for j, c in sorted(a.terms.items()) if j != 0]
    step = gcd(*(j for j, _ in scaled)) or 1  # 1 when t is zero
    out = {0: ring.one()}
    for k in range(step, GRID * a.order + 1, step):
        pairs = []
        for j, jc in scaled:
            if j > k:
                break
            b = out.get(k - j)
            if b is not None:
                pairs.append((jc, b))
        if pairs:
            acc = dot(pairs) * Fraction(1, k)
            if acc != zero:
                out[k] = acc
    out = QExpSeries(ring, a.order, out)
    return out if s0 is None else out.scale(_exp_nilpotent(s0))


def qs_log(a):
    """Logarithm of a series whose q^0 coefficient has constant part 1."""
    ring = a.ring
    a0 = a.terms.get(0, ring.zero())
    if _coeff_constant_term(a0) != 1:
        raise NotExponentiable("q^0 coefficient must have constant part 1")
    if isinstance(a0, (Fraction, int)):
        head = ring.zero()  # log(1) == 0 in the scalar case
        inv0 = ring.one()
    else:
        # log(1 + r) = sum_{j>=1} (-1)^(j+1) r^j / j
        head = _nilpotent_sum(a0 - ring.one(), lambda j: Fraction((-1) ** (j + 1), j) if j else 0)
        inv0 = a0.inverse()

    # a = a0 * (1 + R) with R supported on positive exponents.
    rest = QExpSeries(ring, a.order, {k: c * inv0 for k, c in a.terms.items() if k != 0})
    acc = QExpSeries(ring, a.order, {0: head})
    power = QExpSeries.one(ring, a.order)
    j = 1
    while True:
        power = qs_mul(power, rest)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (j + 1), j))
        j += 1
    return acc
