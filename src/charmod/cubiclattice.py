"""Cubic forms on integral lattices: characteristic elements and the
mod-24/12/3 linearization of x -> 4x^3 + 6ax^2 + 3a^2x.

A lattice carries a fully symmetric trilinear form T; products of lattice
elements are read through T (x^3 = T(x,x,x), ax^2 = T(a,x,x), and so on).
Everything is exact arithmetic in Python ints, and each claim about all of
Z^n is decided on finitely many points: whether a is characteristic on the
basis pairs, and each congruence or identity between cubic polynomials on
``certificate_points``.  Only ``verify_refinement`` samples, because the
refinement it tests is an arbitrary callable.
"""

from __future__ import annotations

import json
import random
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from operator import add, index, mul
from typing import NamedTuple


class NoSolution(ArithmeticError):
    """The defect function does not vanish; carries a counterexample."""

    def __init__(self, x, value, modulus):
        self.x = tuple(int(v) for v in x)
        self.value = int(value)
        self.modulus = int(modulus)
        super().__init__(
            "defect %d (mod %d) at x = %s" % (self.value, self.modulus, list(self.x))
        )


class HypothesisWarning(UserWarning):
    """A theorem hypothesis (characteristic element) is not satisfied."""


MODULI = (24, 12, 3)


def _int_vector(values, length, label):
    """``values`` as a list of Python ints of the given length."""
    try:
        v = [index(x) for x in values]
    except TypeError:
        raise ValueError("%s must be a vector of integers" % label) from None
    if len(v) != length:
        raise ValueError("%s must have length %d" % (label, length))
    return v


class TrilinearLattice:
    """Free abelian group of finite rank with a symmetric trilinear form.

    ``tensor`` is any n x n x n nested sequence of integers, nested lists or
    a numpy array; it is kept as nested lists of Python ints.
    """

    def __init__(self, tensor):
        try:
            t = [[[index(v) for v in row] for row in plane] for plane in tensor]
        except TypeError:
            raise ValueError("tensor must be an n x n x n array of integers") from None
        n = len(t)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in t):
            raise ValueError("tensor must be n x n x n")
        cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        # two transpositions generate every permutation of the indices
        if any(t[i][j][k] != t[j][i][k] or t[i][j][k] != t[i][k][j] for i, j, k in cells):
            raise ValueError("tensor is not symmetric under index permutations")
        self.tensor = t
        self.rank = n
        # cube() uses only i <= j <= k, weighted by the count of distinct
        # index permutations (1, 3 or 6), which is 10 terms instead of 27 at
        # rank 3.
        self._entries = [(i, j, k, t[i][j][k]) for i, j, k in cells if t[i][j][k]]
        self._cube_entries = [
            (i, j, k, (1, 3, 6)[len({i, j, k}) - 1] * v)
            for i, j, k, v in self._entries
            if i <= j <= k
        ]

    def trilinear(self, x, y, z):
        """T(x, y, z) as an exact Python integer."""
        x, y, z = (list(map(index, v)) for v in (x, y, z))
        return sum([t * x[i] * y[j] * z[k] for i, j, k, t in self._entries])

    def cube(self, x):
        """T(x, x, x) as an exact Python integer."""
        x = list(map(index, x))
        return sum([t * x[i] * x[j] * x[k] for i, j, k, t in self._cube_entries])

    def _contract(self, a):
        """The matrix T(a, e_j, e_k), as nested lists of Python ints."""
        out = [[0] * self.rank for _ in range(self.rank)]
        for i, j, k, t in self._entries:
            out[j][k] += a[i] * t
        return out

    def __repr__(self):
        return "TrilinearLattice(rank=%d)" % self.rank


class CubicFormSpec(NamedTuple):
    """The data (a, b) of the cubic polynomial (a+x)^3 - b(a+x)."""

    a: tuple
    b: tuple = None

    def validated(self, rank):
        """(a, b) as lists of Python ints; b is None when unset."""
        a = _int_vector(self.a, rank, "a")
        b = None if self.b is None else _int_vector(self.b, rank, "b")
        return a, b


@lru_cache(maxsize=None)
def certificate_points(rank):
    """The C(n+3, 3) points x in N^n with x_1 + ... + x_n <= 3.

    A polynomial of degree <= 3 with integer values on Z^n is a
    Z-combination of the binomials C(x_1, k_1)...C(x_n, k_n) with
    k_1 + ... + k_n <= 3 (Polya 1915).  Its coefficients are its forward
    differences at 0, which are integer combinations of its values at
    exactly these points.  So it is 0 mod m on all of Z^n iff it is 0 mod m
    here, and 0 everywhere iff it is 0 here.  The points come in order of
    degree, so the first failing one is a smallest witness.
    """
    points = []
    for degree in range(4):
        for indices in combinations_with_replacement(range(rank), degree):
            x = [0] * rank
            for i in indices:
                x[i] += 1
            points.append(tuple(x))
    return tuple(points)


def is_characteristic(lattice, a):
    """Whether T(a,x,y) = T(x,x,y) + T(x,y,y) mod 2 for all x, y in Z^n.

    Mod 2, T(x,x,y) = sum_i x_i T(e_i,e_i,y): the off-diagonal terms of x
    come in equal pairs, and x_i^2 = x_i.  So both sides are bilinear in
    (x, y) mod 2, and the condition holds iff it holds on the n^2 basis
    pairs: T(a,e_i,e_j) = T(e_i,e_i,e_j) + T(e_i,e_j,e_j) mod 2.
    """
    a = _int_vector(a, lattice.rank, "a")
    t = lattice.tensor
    ta = lattice._contract(a)
    n = lattice.rank
    return all(
        (ta[i][j] - t[i][i][j] - t[i][j][j]) % 2 == 0 for i in range(n) for j in range(n)
    )


def _basis_terms(lattice, a, modulus):
    """T(a, e_j, e_k), T(a, a, e_k), and bhat read off on the basis vectors,
    bhat_k = 4e_k^3 + 6ae_k^2 + 3a^2e_k mod m."""
    t = lattice.tensor
    ta = lattice._contract(a)
    taa = [sum(map(mul, a, row)) for row in ta]
    return ta, taa, [(4 * t[k][k][k] + 6 * ta[k][k] + 3 * taa[k]) % modulus for k in range(lattice.rank)]


def solve_bhat(lattice, a, modulus=24, samples=None, seed=None):
    """The unique dual vector with bhat(x) = 4x^3 + 6ax^2 + 3a^2x mod m.

    bhat is read off on the basis vectors.  The defect
    4x^3 + 6ax^2 + 3a^2x - bhat.x is ftilde(x) - ftilde(0) for the
    registry's one-copy form ftilde_{lam,p} = -L Q.  It is cubic in x, so
    checking it on ``certificate_points`` proves it vanishes mod m on all
    of Z^n.  A nonzero defect raises NoSolution at the first failing point;
    for m = 24 a non-characteristic a triggers a HypothesisWarning first
    (the linearization theorem assumes it).  Returns a list of ints in
    [0, m).  ``samples`` and ``seed`` are unused: nothing is sampled.  They
    are accepted so that callers written for the sampled check keep working.
    """
    if modulus not in MODULI:
        raise ValueError("modulus must be one of %s" % (MODULI,))
    a = _int_vector(a, lattice.rank, "a")
    if modulus == 24 and not is_characteristic(lattice, a):
        warnings.warn(
            "a = %s is not characteristic; mod-24 linearization may fail" % (a,),
            HypothesisWarning,
            stacklevel=2,
        )

    ta, taa, bhat = _basis_terms(lattice, a, modulus)
    linear = [3 * v - b for v, b in zip(taa, bhat)]
    for x in certificate_points(lattice.rank):
        quad = sum(xj * sum(map(mul, row, x)) for xj, row in zip(x, ta) if xj)
        defect = (4 * lattice.cube(x) + 6 * quad + sum(map(mul, linear, x))) % modulus
        if defect:
            raise NoSolution(x, defect, modulus)
    return bhat


def _poly_f(lattice, a, b, x):
    """f_{a,b}(x) = (a+x)^3 - b(a+x), products through T; the registry's
    cubic form with two E8 copies is L Q = -f_{lam,p}(2x), lam = K_0/2."""
    y = list(map(add, a, x))
    return lattice.cube(y) - sum(map(mul, y, b))


def _poly_f_tilde(lattice, a, shifted_b, x):
    """4(a+x)^3 - 6a(a+x)^2 - (b - 3a^2)(a+x), products through T, with
    ``shifted_b`` = b - 3a^2; the registry's cubic form with one E8 copy
    is L Q = -ftilde_{lam,p}(x)."""
    y = list(map(add, a, x))
    quad = lattice.trilinear(a, y, y)
    return 4 * lattice.cube(y) - 6 * quad - sum(map(mul, y, shifted_b))


def check_cubic_relations(lattice, spec, samples=None, seed=None):
    """Decide the half-sum identity and the /48 and /24 integrality claims.

    Relation (a): ftilde(x) = (f(2x) + f(0)) / 2, an identity for every
    (a, b).  Relation (b): when a is characteristic and b matches the
    mod-24 linearization, (f(2x) - f(0))/48 and (ftilde(x) - ftilde(0))/24
    are integers.  Every side is a cubic polynomial in x, so each claim is
    decided over all of Z^n on ``certificate_points``.  Returns a report
    dict with the number of points evaluated; a failure carries the first
    failing x as its witness.  ``samples`` and ``seed`` are unused: nothing
    is sampled.  They are accepted so that callers written for the sampled
    check keep working.
    """
    a, b = spec.validated(lattice.rank)
    characteristic = is_characteristic(lattice, a)
    if b is None and not characteristic:
        raise ValueError("spec must fix b when a is not characteristic")
    # bhat with no solve_bhat loop: refine24 repeats it on ftilde(x) - ftilde(0)
    _, taa, bhat = _basis_terms(lattice, a, 24)
    b = bhat if b is None else b
    b_matches = all((bk - hk) % 24 == 0 for bk, hk in zip(b, bhat)) if characteristic else None
    refine = bool(b_matches)

    shifted_b = [bk - 3 * v for bk, v in zip(b, taa)]
    zero = [0] * lattice.rank
    f0 = _poly_f(lattice, a, b, zero)
    ft0 = _poly_f_tilde(lattice, a, shifted_b, zero)
    points = certificate_points(lattice.rank)
    half_sum = refine48 = refine24 = None  # first failing x of each claim
    for x in points:
        f2x = _poly_f(lattice, a, b, [2 * v for v in x])
        ft = _poly_f_tilde(lattice, a, shifted_b, x)
        if half_sum is None and 2 * ft != f2x + f0:
            half_sum = list(x)
        if refine and refine48 is None and (f2x - f0) % 48:
            refine48 = list(x)
        if refine and refine24 is None and (ft - ft0) % 24:
            refine24 = list(x)

    def refinement(witness):
        passed = (witness is None) if refine else None
        return {"applicable": refine, "passed": passed, "witness": witness}

    return {
        "points": len(points),
        "characteristic": characteristic,
        "b_congruent_mod24": b_matches,
        "b": b,
        "half_sum": {"passed": half_sum is None, "witness": half_sum},
        "refine48": refinement(refine48),
        "refine24": refinement(refine24),
        "passed": half_sum is None and refine48 is None and refine24 is None,
    }


def _ratio(value):
    """(numerator, denominator) of an int, a Fraction or anything that
    ``Fraction`` accepts."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


_SIGNS = (1, -1, -1, -1, 1, 1, 1, -1)


def verify_refinement(lattice, h, samples=1000, seed=None):
    """Check T(x,y,z) against the third difference of a cubic refinement h.

    h maps integer vectors (lists of ints) to rationals; the identity tested
    is T(x,y,z) = h(x+y+z) - h(x+y) - h(x+z) - h(y+z) + h(x) + h(y) + h(z)
    - h(0).  h is an arbitrary callable, so this samples: ``samples``
    triples with entries in [-9, 9], drawn with ``random.Random(seed)``.
    The eight values are summed as int numerators over their lcm.  Raises
    ValueError for fewer than one sample, which would check nothing.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1, got %r" % (samples,))
    rng = random.Random(seed)
    n = lattice.rank
    h0 = _ratio(h([0] * n))
    entries = range(-9, 10)
    for _ in range(int(samples)):
        drawn = rng.choices(entries, k=3 * n)
        x, y, z = drawn[:n], drawn[n:2 * n], drawn[2 * n:]
        xy, xz, yz = list(map(add, x, y)), list(map(add, x, z)), list(map(add, y, z))
        values = [_ratio(h(v)) for v in (list(map(add, xy, z)), xy, xz, yz, x, y, z)]
        values.append(h0)
        den = lcm(*[d for _, d in values])
        total = sum(s * num * (den // d) for s, (num, d) in zip(_SIGNS, values))
        if total != lattice.trilinear(x, y, z) * den:
            return {"passed": False, "samples": int(samples), "witness": [x, y, z]}
    return {"passed": True, "samples": int(samples), "witness": None}


def _holds_bool(value):
    """Whether a parsed JSON value is or holds true or false."""
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def load_lattice_json(source):
    """Parse the lattice input format.

    Expected keys: rank, trilinear (full n x n x n array), and optionally
    a (default zero), b and modulus (default 24).  Entries may be integers
    of any size, but not true or false.
    """
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = dict(source)
    for key, value in payload.items():
        if _holds_bool(value):
            raise ValueError("%s must hold integers, not true or false" % key)
    try:
        rank = index(payload["rank"])
        lattice = TrilinearLattice(payload["trilinear"])
    except KeyError as exc:
        raise ValueError("missing required key %s" % exc)
    except TypeError:
        raise ValueError("rank must be an integer") from None
    if lattice.rank != rank:
        raise ValueError(
            "declared rank %d does not match tensor rank %d" % (rank, lattice.rank)
        )
    # only an absent key or null takes the default; [] or 0 is malformed
    a, b = payload.get("a"), payload.get("b")
    a = _int_vector([0] * rank if a is None else a, rank, "a")
    spec = CubicFormSpec(a=tuple(a), b=None if b is None else tuple(_int_vector(b, rank, "b")))
    modulus = payload.get("modulus", 24)
    if not isinstance(modulus, int) or modulus not in MODULI:
        raise ValueError("modulus must be one of %s" % (MODULI,))
    return {"lattice": lattice, "spec": spec, "modulus": modulus}
