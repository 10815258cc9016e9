"""Characteristic-class calculus over graded polynomial rings.

Provides exact polynomial rings with graded generators and a total-degree
cap, multiplicative classes built from even root functions, and the
characters of virtual bundles: a bundle is its total Chern character, a
polynomial in the ring, so Adams operations, the exterior/symmetric square
splitting and the q-expansions of the standard twist bundles all take and
return characters.  Also gives the rank-248 bundle in closed form: its root
part R(x) = 240 - 60x + 6x^2 - x^3/3, and its degree-4/8/12 root data, the
power sums of one root y with y^2 = -2x.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, gcd, lcm

from .exactmath import GRID, RAT_RING, ArgumentError, NotInvertible, QExpSeries, qs_exp
from .exactmath import _exp_nilpotent, _nilpotent_sum, _power


class DegreeError(ValueError):
    """An input polynomial has the wrong homogeneous degree."""


class DimError(ValueError):
    """An unsupported manifold dimension was requested."""


class SpecError(ValueError):
    """Unknown twist-bundle specification id."""


# ----------------------------------------------------------------------
# graded polynomial ring
# ----------------------------------------------------------------------


class PolyRing:
    """Commutative polynomial ring over Fraction with graded generators.

    ``generators`` maps generator names to positive integer degrees; the
    insertion order fixes the exponent-tuple layout and the display order.
    Monomials of total degree above ``cap``, which must be at least 0, are
    discarded on construction, so every element is automatically truncated.

    Monomials are packed into one int each, as in the packed monomials of
    Monagan & Pearce ("Sparse polynomial multiplication and division in
    Maple 14", 2010): the total degree sits in the top field, above one
    field per generator (the first generator highest), each wide enough for
    the largest exponent the cap allows, cap // degree.  Packed keys order
    monomials by degree, then by exponent tuple; a monomial product is the
    sum of the keys, and it is within the cap exactly when that sum is below
    ``(cap + 1) << shift``.  A product within the cap fits every field, so
    the sum never carries from one field into the next.

    ``dot(pairs)`` returns the sum of ``a * b`` over a list of ``(a, b)``
    pairs as one element (``zero()`` for none): polynomial products,
    `qs_exp` and `qs_inv` go through it.  ``packed(p)``, ``(p.den, p.nums)``, and its
    inverse ``from_packed`` are the view that `qs_mul` multiplies by.
    """

    __slots__ = ("degrees", "names", "cap", "key", "_index", "_fields", "_shift", "_limit", "_gens")

    def __init__(self, generators, cap=12):
        self.degrees = dict(generators)
        if not all(isinstance(d, int) and d > 0 for d in self.degrees.values()):
            raise ValueError("generator degrees must be positive integers: %r" % (self.degrees,))
        self.names = tuple(self.degrees)
        self.cap = int(cap)
        if self.cap < 0:
            raise ArgumentError("the degree cap must be at least 0, got %d" % self.cap)
        self.key = ("graded", tuple(self.degrees.items()), self.cap)
        self._index = {name: i for i, name in enumerate(self.names)}
        # (offset, mask) of each generator's exponent field, last one lowest
        self._fields = []
        shift = 0
        for degree in reversed(self.degrees.values()):
            width = (self.cap // degree).bit_length()
            self._fields.insert(0, (shift, (1 << width) - 1))
            shift += width
        self._shift = shift
        self._limit = (self.cap + 1) << shift
        # elements are immutable, so each generator is built once and shared
        self._gens = {name: GradedPoly(self, {tuple(int(j == i) for j in range(len(self.names))): 1})
                      for i, name in enumerate(self.names)}

    def monomial_degree(self, exps):
        return sum(e * self.degrees[n] for n, e in zip(self.names, exps))

    def pack(self, exps):
        """Packed key of an exponent tuple within the cap."""
        key = self.monomial_degree(exps) << self._shift
        for e, (offset, _) in zip(exps, self._fields):
            key += e << offset
        return key

    def unpack(self, key):
        return tuple((key >> offset) & mask for offset, mask in self._fields)

    def dot(self, pairs):
        """Sum of ``a * b`` over the ``(a, b)`` pairs, truncated at the cap.

        The numerators of every pair are summed as plain ints over one
        common denominator, the lcm of the pairs' denominator products, so
        the result builds no Fraction and no intermediate polynomial.  Each
        operand's terms are sorted by packed key, so the inner loop stops at
        the first term whose product is past the cap.
        """
        limit = self._limit
        den = 1
        for a, b in pairs:
            den = lcm(den, a.den * b.den)
        sums = defaultdict(int)
        for a, b in pairs:
            scale = den // (a.den * b.den)
            right = b.nums.items()
            for k1, n1 in a.nums.items():
                room = limit - k1
                n1 *= scale
                for k2, n2 in right:
                    if k2 >= room:
                        break
                    sums[k1 + k2] += n1 * n2
        return _poly(self, den, sums)

    packed = staticmethod(lambda p: (p.den, p.nums))

    def from_packed(self, den, nums):
        return _poly(self, den, nums)

    def zero(self):
        return _normal(self, 1, {})

    def one(self):
        return _normal(self, 1, {0: 1})

    def constant(self, value):
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _normal(self, value.denominator, {0: value.numerator} if value else {})

    def gen(self, name):
        if name not in self._gens:
            raise KeyError("no generator %r in ring %r" % (name, self.names))
        return self._gens[name]

    def gens(self):
        return dict(self._gens)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "PolyRing(%s, cap=%d)" % (dict(self.degrees), self.cap)


class GradedPoly:
    """Element of a PolyRing: ``nums[k] / den`` at each packed monomial key k.

    ``nums`` is sorted by key and holds no zero, and ``den`` > 0 shares no
    factor with all of the numerators, so equal elements have equal ``den``
    and ``nums``.  Sums, negation and scalar products stay in ints over one
    denominator.  ``coeffs`` is the public ``{exponent tuple: Fraction}``
    view, in the same order, built on first use and kept: an element is
    never mutated after construction.
    """

    __slots__ = ("ring", "den", "nums", "_coeffs")

    def __init__(self, ring, coeffs):
        """``coeffs`` maps exponent tuples, one entry per generator, to ints
        or Fractions; zeros and monomials past the cap are dropped."""
        terms = {}
        for exps, coeff in coeffs.items():
            if len(exps) != len(ring.names) or min(exps, default=0) < 0:
                raise ValueError("exponents %r do not fit generators %r" % (exps, ring.names))
            if coeff != 0 and ring.monomial_degree(exps) <= ring.cap:
                terms[ring.pack(exps)] = Fraction(coeff)
        den = reduce(lcm, (c.denominator for c in terms.values()), 1)
        self.ring = ring
        self.den = den
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in sorted(terms.items())}
        self._coeffs = None

    @property
    def coeffs(self):
        if self._coeffs is None:
            unpack, den = self.ring.unpack, self.den
            self._coeffs = {unpack(k): Fraction(n, den) for k, n in self.nums.items()}
        return self._coeffs

    # -- ring structure -------------------------------------------------

    def _require_same_ring(self, other):
        if other.ring.key != self.ring.key:
            raise ValueError("mixed polynomial rings: %r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._require_same_ring(other)
        den = lcm(self.den, other.den)
        scale = den // other.den
        nums = self._scaled_nums(den // self.den)
        for k, n in other.nums.items():
            nums[k] = nums.get(k, 0) + n * scale
        return _poly(self.ring, den, nums)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _normal(self.ring, self.den, self._scaled_nums(-1))

    def _scaled_nums(self, factor):
        return {k: n * factor for k, n in self.nums.items()}

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # p/q in lowest terms: den is coprime to the content c of nums,
            # so gcd(den q, c p) = gcd(den, p) gcd(q, c) gives the normal form
            p, q = other.numerator, other.denominator
            if not p:
                return self.ring.zero()
            g_p, g_q = gcd(self.den, p), gcd(q, *self.nums.values()) if q != 1 else 1
            p //= g_p
            nums = {k: n // g_q * p for k, n in self.nums.items()}
            return _normal(self.ring, self.den // g_p * (q // g_q), nums)
        self._require_same_ring(other)
        return self.ring.dot(((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)) or scalar == 0:
            raise ValueError("can only divide by a nonzero scalar")
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative powers go through inverse()")
        return _power(self, exponent, self.ring.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (
            isinstance(other, GradedPoly)
            and other.ring.key == self.ring.key
            and other.den == self.den
            and other.nums == self.nums
        )

    def __hash__(self):
        return hash((self.ring.key, self.den, tuple(self.nums.items())))

    # -- structure queries ----------------------------------------------

    def is_zero(self):
        return not self.nums

    def constant_term(self):
        return Fraction(self.nums.get(0, 0), self.den)

    def homogeneous_part(self, degree):
        shift = self.ring._shift
        return _poly(self.ring, self.den, {k: n for k, n in self.nums.items() if k >> shift == degree})

    def is_homogeneous(self, degree):
        shift = self.ring._shift
        return all(k >> shift == degree for k in self.nums)

    def monomial_coefficient(self, **exponents):
        exps = [0] * len(self.ring.names)
        for name, e in exponents.items():
            exps[self.ring._index[name]] = int(e)
        return Fraction(self.nums.get(self.ring.pack(exps), 0), self.den)

    # -- derived operations ----------------------------------------------

    def inverse(self):
        """Inverse of a unit: nonzero constant plus nilpotent remainder.

        Uses the geometric series 1/(c0 (1 + r)) = (1/c0) sum (-r)^k, which
        terminates because the capped ring makes r nilpotent.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible("constant term is zero")
        rest = (self - c0) * (Fraction(1) / c0)
        return _nilpotent_sum(rest, lambda j: (-1) ** j) * (Fraction(1) / c0)

    def divide_by_gen(self, name):
        """Exact division by a generator; every monomial must contain it."""
        ring = self.ring
        offset, mask = ring._fields[ring._index[name]]
        if any(not (k >> offset) & mask for k in self.nums):
            raise ValueError("polynomial is not divisible by %s" % name)
        step = (ring.degrees[name] << ring._shift) + (1 << offset)
        return _poly(self.ring, self.den, {k - step: n for k, n in self.nums.items()})

    def substitute(self, mapping, target_ring):
        """Evaluate under generator images living in ``target_ring``.

        ``mapping`` must cover every generator that appears with a nonzero
        exponent; missing ones raise ValueError naming the generator.  The
        image is one ``target_ring.dot`` over (numerator, image monomial)
        pairs, divided by ``den``.
        """
        powers = {}
        pairs = []
        for key, n in self.nums.items():
            monomial = target_ring.one()
            for name, e in zip(self.ring.names, self.ring.unpack(key)):
                if not e:
                    continue
                if (name, e) not in powers:
                    if name not in mapping:
                        raise ValueError("no image for generator %r" % name)
                    powers[(name, e)] = mapping[name] ** e
                monomial = monomial * powers[(name, e)]
            pairs.append((target_ring.constant(n), monomial))
        return target_ring.dot(pairs) * Fraction(1, self.den)

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        return "GradedPoly(%s)" % (self,)

    def __str__(self):
        if not self.nums:
            return "0"
        pieces = []
        for exps, coeff in self.coeffs.items():
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append("*".join(factors))
            elif coeff == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append("%s*%s" % (coeff, "*".join(factors)))
        return " + ".join(pieces).replace("+ -", "- ")


def _poly(ring, den, nums):
    """Element with coefficient ``n/den`` at each packed key of ``nums``:
    zeros dropped, keys sorted, ``den`` and the numerators divided by their
    gcd."""
    nums = {k: n for k, n in sorted(nums.items()) if n}
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {k: n // g for k, n in nums.items()}
    return _normal(ring, den, nums)


def _normal(ring, den, nums):
    """Element from its normal form: ``nums`` sorted by key and free of
    zeros, and ``den`` > 0 sharing no factor with all of them."""
    poly = object.__new__(GradedPoly)
    poly.ring, poly.den, poly.nums, poly._coeffs = ring, den, nums, None
    return poly


# Standard rings ---------------------------------------------------------

#: Default generator table for the twelve-dimensional calculations.
DEFAULT_GENERATORS = {"p1": 4, "p2": 8, "p3": 12, "c": 2, "x": 4}


@lru_cache(maxsize=None)
def default_ring(cap=12):
    return PolyRing(DEFAULT_GENERATORS, cap=cap)


# ----------------------------------------------------------------------
# power sums and multiplicative classes
# ----------------------------------------------------------------------


def power_sums_from_pontryagin(pontryagin, count):
    """Power sums of squared roots from elementary symmetric functions.

    ``pontryagin`` is the list [p1, p2, p3, ...] of available generators;
    Newton's identities give pi_1 = p1, pi_2 = p1^2 - 2 p2,
    pi_3 = p1^3 - 3 p1 p2 + 3 p3.
    """
    count = int(count)
    if count < 1 or count > 3:
        raise DegreeError("power sums supported for k in 1..3, got %d" % count)
    if len(pontryagin) < count:
        raise DegreeError(
            "power sum pi_%d needs %d elementary inputs, got %d"
            % (count, count, len(pontryagin))
        )
    p1 = pontryagin[0]
    out = [p1]
    if count >= 2:
        p2 = pontryagin[1]
        out.append(p1 * p1 - 2 * p2)
    if count >= 3:
        p3 = pontryagin[2]
        out.append(p1 * p1 * p1 - 3 * p1 * p2 + 3 * p3)
    return out


# log f(y) coefficients of y^2, y^4, y^6 for the two root functions:
#   Ahat root  (y/2)/sinh(y/2):      -y^2/24 + y^4/2880 - y^6/181440
#   Lhat root  y/tanh(y/2) = 2*...:   y^2/12 - 7 y^4/1440 + 31 y^6/90720  (plus log 2)
_ROOT_LOG_COEFFS = {
    "Ahat": (Fraction(-1, 24), Fraction(1, 2880), Fraction(-1, 181440)),
    "Lhat": (Fraction(1, 12), Fraction(-7, 1440), Fraction(31, 90720)),
}

#: constant value of the root function at y = 0 (multiplied once per root)
_ROOT_CONSTANT = {"Ahat": Fraction(1), "Lhat": Fraction(2)}


def _power_sums(ring, pontryagin_names):
    """The power sums pi_1, pi_2, pi_3 of squared roots, one per Pontryagin
    generator ``ring`` holds and at most cap // 4 (but at least one); over
    a cap of 16 or more, which needs pi_4, raises ArgumentError."""
    available = [ring.gen(n) for n in pontryagin_names if n in ring.degrees]
    if available and ring.cap >= 16:
        raise ArgumentError("a cap above 15 needs the power sum pi_4, got %d" % ring.cap)
    count = min(3, len(available), max(1, ring.cap // 4))
    return power_sums_from_pontryagin(available, count)


def multiplicative_class(kind, dim, ring, pontryagin_names=("p1", "p2", "p3")):
    """Total multiplicative class for the given even root function.

    ``kind`` is "Ahat" or "Lhat"; ``dim`` in {10, 12} sets the number of
    roots (dim/2), which only enters through the constant factor
    f(0)**(dim/2).  Pontryagin generators missing from ``ring`` are treated
    as killed by the degree cap.  The sum over the roots of log f is
    sum_k a_k pi_k, with a_k the coefficient of y^(2k) in log f.
    """
    if dim not in (10, 12):
        raise DimError("dimension must be 10 or 12, got %r" % (dim,))
    if kind not in _ROOT_LOG_COEFFS:
        raise ArgumentError("unknown multiplicative class %r" % (kind,))
    log_part = ring.zero()
    for pi_k, a_k in zip(_power_sums(ring, pontryagin_names), _ROOT_LOG_COEFFS[kind]):
        log_part = log_part + pi_k * a_k
    value = _exp_nilpotent(log_part)
    constant = _ROOT_CONSTANT[kind] ** (dim // 2)
    return value * constant


# ----------------------------------------------------------------------
# bundle characters
# ----------------------------------------------------------------------
#
# A virtual bundle is its total Chern character: a GradedPoly whose constant
# term is the (rational) rank.  ch is a ring map, so bundle sums and tensor
# products are sums and products of characters, and an integer n stands for
# the trivial bundle of rank n.


def ch_tangent(dim, ring, pontryagin_names=("p1", "p2", "p3")):
    """Complexified tangent character: the sum of exp(y) + exp(-y) over the
    roots, dim + sum_k 2 pi_k / (2k)! = dim + pi_1 + pi_2/12 + pi_3/360."""
    if dim not in (10, 12):
        raise DimError("dimension must be 10 or 12, got %r" % (dim,))
    ch = ring.constant(dim)
    for k, pi_k in enumerate(_power_sums(ring, pontryagin_names), 1):
        ch = ch + pi_k * Fraction(2, factorial(2 * k))
    return ch


def e8_root_ch(x):
    """R(x) = 240 - 60 x + 6 x^2 - x^3/3: the sum of cosh(y) over the 240
    roots through degree 12, with y^2 = -2x along one root line; nonzero x
    over a cap of 16 or more, where E8 has a degree-8 invariant, raises ArgumentError."""
    if x.ring.cap >= 16 and not x.is_zero():
        raise ArgumentError("a cap above 15 leaves V no x-only character, got %d" % x.ring.cap)
    square = x * x
    return 240 - 60 * x + 6 * square - square * x * Fraction(1, 3)


def e8_ch(x):
    """Character 8 + R(x) of the rank-248 bundle (so c2 = 60 x): its eight
    Cartan directions and `e8_root_ch`."""
    if not x.is_homogeneous(4):
        raise DegreeError("x must be homogeneous of degree 4")
    return 8 + e8_root_ch(x)


def line_pair_ch(c):
    """Character exp(c) + exp(-c) of the rank-2 bundle of a degree-2 class c."""
    if not c.is_homogeneous(2):
        raise DegreeError("c must be homogeneous of degree 2")
    return _exp_nilpotent(c) + _exp_nilpotent(-c)


def vb_adams(ch, k):
    """Character of the k-th Adams image: each degree-2j component of ``ch``
    scaled by k**j."""
    k = int(k)
    if k < 1:
        raise ArgumentError("Adams operations need k >= 1, got %d" % k)
    shift = ch.ring._shift
    nums = {key: n * k ** ((key >> shift) // 2) for key, n in ch.nums.items()}
    return _poly(ch.ring, ch.den, nums)


def vb_lambda2_sym2(ch):
    """Characters of the exterior and symmetric square of the bundle with
    character ``ch``: (ch^2 - psi^2 ch) / 2 and (ch^2 + psi^2 ch) / 2."""
    square = ch * ch
    psi2 = vb_adams(ch, 2)
    return (square - psi2) * Fraction(1, 2), (square + psi2) * Fraction(1, 2)


# ----------------------------------------------------------------------
# twist-bundle q-expansions
# ----------------------------------------------------------------------

#: The log of each Jacobi-theta factor as (alternating, sign, half steps).
#: Over the reduced character E of an input it is, at each step s (q^n, or
#: q^(n-1/2) on half steps), sum_k sign^k psi^k(E) q^(ks) / k, with
#: (-1)^(k+1) in each term when alternating: the log of Sym_t E (Theta) or
#: Lambda_t E (Theta1) at t = q^n, and of Lambda_t E at t = -q^(n-1/2)
#: (Theta2) or t = q^(n-1/2) (Theta3).
_THETA = (False, 1, False)
_THETA1 = (True, 1, False)
_THETA2 = (True, -1, True)
_THETA3 = (True, 1, True)

#: Each twist spec as its families, (input index, factor) pairs.  Phi, the
#: orientable twist, is all four factors on the tangent input; ThetaTwisted,
#: the spin^c twist, is Theta on the tangent input and the other three
#: factors on the twist input.
_WITTEN_SPECS = {
    "Theta": ((0, _THETA),),
    "ThetaTwisted": ((0, _THETA), (1, _THETA1), (1, _THETA2), (1, _THETA3)),
    "Theta1": ((0, _THETA1),),
    "Theta2": ((0, _THETA2),),
    "Theta3": ((0, _THETA3),),
    "Phi": ((0, _THETA), (0, _THETA1), (0, _THETA2), (0, _THETA3)),
}


def exp_combination(pairs, ring, order):
    """exp(sum_i s_i(q) P_i) truncated at q^order, for ``(s_i, P_i)`` pairs
    of a rational q-series and an element of ``ring``; the one `qs_exp` caller.
    Each grid exponent's coefficient is one ``ring.dot`` over its terms."""
    groups = defaultdict(list)
    for series, element in pairs:
        for grid_key, coeff in series.terms.items():
            groups[grid_key].append((ring.constant(coeff), element))
    return qs_exp(QExpSeries(ring, order, {k: ring.dot(group) for k, group in groups.items()}))


def witten_log(spec_id, inputs, order):
    """The log of `witten_character` as ``(t_j(q), E_2j)`` pairs for
    `exp_combination`, one per input ([tangent] or [tangent, twist], each
    of integer rank) and degree 2j of its reduced character E (psi^k fixes
    degree 0).  The input's factor families give it sum_k s_k(q) psi^k E,
    every term of s_k an integer over k; psi^k scales E_2j by k^j, so that
    is sum_j t_j E_2j with t_j = sum_k k^j s_k, whose terms are the ints
    k^(j-1) times those numerators for j >= 1."""
    if spec_id not in _WITTEN_SPECS:
        raise SpecError("unknown twist-bundle id %r" % (spec_id,))
    families = _WITTEN_SPECS[spec_id]
    needed = 1 + max(index for index, _ in families)
    if len(inputs) < needed:
        raise ArgumentError("%s needs %d inputs, got %d" % (spec_id, needed, len(inputs)))
    ranks = [ch.constant_term() for ch in inputs[:needed]]
    if any(rank.denominator != 1 for rank in ranks):
        raise ArgumentError("each input needs an integer rank, got %s" % ", ".join(map(str, ranks)))
    reduced = [ch - rank for ch, rank in zip(inputs, ranks)]
    ring, shift, limit = inputs[0].ring, inputs[0].ring._shift, GRID * int(order)
    per_k = defaultdict(lambda: defaultdict(int))  # k s_k of each (input, k)
    for index, (alternating, sign, half_steps) in families:
        for step in range(GRID // 2 if half_steps else GRID, limit + 1, GRID):
            for k in range(1, limit // step + 1):
                per_k[(index, k)][step * k] += (-1 if alternating and k % 2 == 0 else 1) * sign ** k
    powers = [{(key >> shift) // 2 for key in ch.nums} for ch in reduced]  # as `vb_adams` reads degrees
    series = defaultdict(lambda: defaultdict(int))
    for (index, k), nums in per_k.items():
        for j in powers[index]:
            weight = k ** (j - 1) if j else Fraction(1, k)
            for grid_key, n in nums.items():
                series[(index, j)][grid_key] += weight * n
    return [(QExpSeries(RAT_RING, order, {g: Fraction(n) for g, n in nums.items() if n}),
             _poly(ring, reduced[index].den,
                   {key: n for key, n in reduced[index].nums.items() if (key >> shift) // 2 == j}))
            for (index, j), nums in series.items()]


def witten_character(spec_id, inputs, order):
    """q-expansion of a standard twist bundle as a QExpSeries of characters,
    the exp of `witten_log`, over the tangent character's ring.  The support
    is whole for every id except Theta2/Theta3, whose support is half-integral."""
    return exp_combination(witten_log(spec_id, inputs, order), inputs[0].ring, order)


def witten_expand(spec_id, inputs, order):
    """Same expansion as `witten_character` as a dict from Fraction
    exponent to character."""
    series = witten_character(spec_id, inputs, order)
    return {Fraction(k, GRID): ch for k, ch in sorted(series.terms.items())}


# ----------------------------------------------------------------------
# root data of the rank-248 bundle
# ----------------------------------------------------------------------


def calibrate_e8_roots(x):
    """Degree-4/8/12 root power sums (g1, g2, g3) that reproduce
    ch = 248 - 60x + 6x^2 - x^3/3 in the q^1 character coefficient.

    They are the power sums y^2, y^4, y^6 of one root with y^2 = -2x.  The
    degree-4 slot of the q^1 coefficient forces g1 = -2x.  Below degree 16
    every Weyl invariant of the eight root variables is a polynomial in the
    first power sum, so the degree-8 and degree-12 slots leave g2 and g3
    free, and the single-root values g1^2 and g1^3 complete them; the
    assembled character does not depend on that completion.
    """
    if not x.is_homogeneous(4):
        raise DegreeError("x must be homogeneous of degree 4")
    g1 = -2 * x
    return g1, g1 * g1, g1 * g1 * g1
