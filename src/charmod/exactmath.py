"""Exact truncated q-series arithmetic on a 1/24 exponent grid.

A series here is a finite sum ``sum_k a_k * q**(k/24)`` with integer grid
exponents ``0 <= k <= 24*order``, where ``order`` counts whole powers of q.
Coefficients live in an exact commutative ring: `fractions.Fraction` scalars
(via `RAT_RING`) or any caller-supplied ring object exposing ``zero()``,
``one()``, a hashable ``key`` and the sum-of-products kernel ``dot(pairs)``
(see `qs_mul`).  No floats ever enter these code paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, lcm

#: Denominator of the exponent grid.  Every exponent is k/GRID with k an
#: integer, which accommodates q**(1/24), q**(1/8) and q**(1/2) exactly.
GRID = 24


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
            raise ValueError("order must be >= 0")
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


def qs_mul(a, b):
    """Cauchy product of two series, truncated to the smaller order.

    The term pairs are grouped by output exponent and each group is summed
    by the coefficient ring's kernel: ``ring.dot(pairs)`` returns the sum of
    ``x * y`` over a list of ``(x, y)`` coefficient pairs as one ring
    element, and ``ring.zero()`` for an empty list.  `qs_exp` and `qs_inv`
    use the same kernel, so no product is built as a separate coefficient.
    """
    a._require_same_ring(b)
    order = min(a.order, b.order)
    limit = GRID * order
    right = sorted(b.terms.items())
    groups = {}
    for ka, ca in a.terms.items():
        room = limit - ka
        for kb, cb in right:
            if kb > room:
                break
            k = ka + kb
            if k in groups:
                groups[k].append((ca, cb))
            else:
                groups[k] = [(ca, cb)]
    dot = a.ring.dot
    return QExpSeries(a.ring, order, {k: dot(pairs) for k, pairs in groups.items()})


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

    on the 1/24 grid (the 1/24 of each exponent cancels), which costs
    O(N^2) coefficient products.  exp(s0) is a finite sum because s0 is
    nilpotent, and multiplies the whole series when s0 is not 0.
    """
    ring = a.ring
    s0 = a.terms.get(0)
    if s0 is not None and _coeff_constant_term(s0) != 0:
        raise NotExponentiable("q^0 coefficient must have zero constant part")

    zero = ring.zero()
    dot = ring.dot
    scaled = [(j, c * j) for j, c in sorted(a.terms.items()) if j != 0]
    out = {0: ring.one()}
    for k in range(1, GRID * a.order + 1):
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
