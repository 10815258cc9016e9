"""Cubic forms on integral lattices: characteristic elements and the
mod-24/12/3 linearization of x -> 4x^3 + 6ax^2 + 3a^2x.

A lattice carries a fully symmetric trilinear form T; products of lattice
elements are read through T (x^3 = T(x,x,x), ax^2 = T(a,x,x), and so on).
Everything here is brute-force integer arithmetic: small ranks are checked
exhaustively, larger ones by basis evaluation plus randomized sampling.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np


class ScaleError(ValueError):
    """The requested exhaustive check is too large for this rank."""


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


class TrilinearLattice:
    """Free abelian group of finite rank with a symmetric trilinear form."""

    def __init__(self, tensor):
        t = np.asarray(tensor, dtype=np.int64)
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise ValueError("tensor must be n x n x n, got shape %s" % (t.shape,))
        for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            if not np.array_equal(t, np.transpose(t, axes)):
                raise ValueError("tensor is not symmetric under index permutations")
        self.tensor = t
        self.rank = t.shape[0]
        # Nonzero entries as Python ints, so T is evaluated exactly; cube()
        # uses only i <= j <= k, weighted by the count of distinct index
        # permutations (1, 3 or 6), which is 10 terms instead of 27 at rank 3.
        self._entries = [(i, j, k, int(t[i, j, k])) for i, j, k in zip(*np.nonzero(t))]
        self._cube_entries = [
            (i, j, k, (1, 3, 6)[len({i, j, k}) - 1] * v)
            for i, j, k, v in self._entries
            if i <= j <= k
        ]

    def trilinear(self, x, y, z):
        """T(x, y, z) as an exact Python integer (no int64 wrap)."""
        x, y, z = (np.asarray(v).tolist() for v in (x, y, z))
        return sum([t * x[i] * y[j] * z[k] for i, j, k, t in self._entries])

    def cube(self, x):
        """T(x, x, x) as an exact Python integer."""
        x = np.asarray(x).tolist()
        return sum([t * x[i] * x[j] * x[k] for i, j, k, t in self._cube_entries])

    def _vector(self, v, label):
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.rank,):
            raise ValueError("%s must have length %d" % (label, self.rank))
        return v

    def __repr__(self):
        return "TrilinearLattice(rank=%d)" % self.rank


@dataclass
class CubicFormSpec:
    """The data (a, b) of the cubic polynomial (a+x)^3 - b(a+x)."""

    a: tuple
    b: tuple = None

    def validated(self, rank):
        a = np.asarray(self.a, dtype=np.int64)
        if a.shape != (rank,):
            raise ValueError("a must have length %d" % rank)
        b = None
        if self.b is not None:
            b = np.asarray(self.b, dtype=np.int64)
            if b.shape != (rank,):
                raise ValueError("b must have length %d" % rank)
        return a, b


def _binary_vectors(rank):
    out = np.indices((2,) * rank).reshape(rank, -1).T
    return out.astype(np.int64)


def is_characteristic(lattice, a):
    """Whether T(a,x,y) = T(x,x,y) + T(x,y,y) mod 2 for all x, y in (Z/2)^n."""
    if lattice.rank > 8:
        raise ScaleError("characteristic test loops over (Z/2)^n pairs; rank > 8")
    a = lattice._vector(a, "a")
    t = lattice.tensor
    u = _binary_vectors(lattice.rank)
    pair_a = u @ np.einsum("ijk,k->ij", t, a) @ u.T  # T(x_m, x_l, a)
    diag = np.einsum("mi,mj,ijk->mk", u, u, t)  # T(x_m, x_m, .)
    cubic = diag @ u.T  # T(x_m, x_m, x_l)
    defect = pair_a - cubic - cubic.T
    return bool((defect % 2 == 0).all())


def _grid_points(rank, modulus):
    out = np.indices((modulus,) * rank).reshape(rank, -1).T
    return out.astype(np.int64)


def _defects(t, a, bhat, points, modulus):
    """(4x^3 + 6ax^2 + 3a^2x - bhat.x) mod m at each sample point."""
    cubic = np.einsum("ijk,mi,mj,mk->m", t, points, points, points)
    quad = np.einsum("ijk,i,mj,mk->m", t, a, points, points)
    lin = np.einsum("ijk,i,j,mk->m", t, a, a, points)
    return (4 * cubic + 6 * quad + 3 * lin - points @ bhat) % modulus


def solve_bhat(lattice, a, modulus=24, samples=1000, seed=None):
    """The unique dual vector with bhat(x) = 4x^3 + 6ax^2 + 3a^2x mod m.

    The candidate is read off on basis vectors and then verified globally:
    exhaustively over (Z/m)^n for rank <= 2, otherwise on basis vectors
    plus at least 1000 random points.  A nonzero defect raises NoSolution
    with the counterexample; for m = 24 a non-characteristic a triggers a
    HypothesisWarning first (the linearization theorem assumes it).
    """
    if modulus not in MODULI:
        raise ValueError("modulus must be one of %s" % (MODULI,))
    a = lattice._vector(a, "a")
    if modulus == 24 and lattice.rank <= 8 and not is_characteristic(lattice, a):
        warnings.warn(
            "a = %s is not characteristic; mod-24 linearization may fail"
            % (a.tolist(),),
            HypothesisWarning,
            stacklevel=2,
        )

    # The defect mod m depends only on the residues of T and a, and with
    # every entry below m the int64 einsums here and in _defects cannot wrap.
    t = lattice.tensor % modulus
    a = a % modulus
    bhat = (
        4 * np.einsum("iii->i", t)
        + 6 * np.diagonal(np.einsum("ijk,i->jk", t, a))
        + 3 * np.einsum("ijk,i,j->k", t, a, a)
    ) % modulus

    if lattice.rank <= 2:
        points = _grid_points(lattice.rank, modulus)
    else:
        rng = np.random.default_rng(seed)
        count = max(int(samples), 1000)
        random_part = rng.integers(0, modulus, size=(count, lattice.rank))
        points = np.vstack([np.eye(lattice.rank, dtype=np.int64), random_part])

    defects = _defects(t, a, bhat, points, modulus)
    bad = np.nonzero(defects)[0]
    if bad.size:
        i = int(bad[0])
        raise NoSolution(points[i], defects[i], modulus)
    return bhat


def _poly_f(lattice, a, b, x):
    """f_{a,b}(x) = (a+x)^3 - b(a+x), products through T; a, b, x are lists
    of Python ints, so nothing wraps."""
    y = [ai + xi for ai, xi in zip(a, x)]
    return lattice.cube(y) - sum(map(mul, y, b))


def _poly_f_tilde(lattice, a, shifted_b, x):
    """4(a+x)^3 - 6a(a+x)^2 - (b - 3a^2)(a+x), products through T, with
    ``shifted_b`` = b - 3a^2 given as a list of Python ints."""
    y = [ai + xi for ai, xi in zip(a, x)]
    quad = lattice.trilinear(a, y, y)
    return 4 * lattice.cube(y) - 6 * quad - sum(map(mul, y, shifted_b))


def check_cubic_relations(lattice, spec, samples=1000, seed=None):
    """Sample the half-sum identity and the /48 and /24 integrality claims.

    Relation (a): ftilde(x) = (f(2x) + f(0)) / 2, an identity for every
    (a, b).  Relation (b): when a is characteristic and b matches the
    mod-24 linearization, (f(2x) - f(0))/48 and (ftilde(x) - ftilde(0))/24
    are integers.  Returns a report dict; failures carry the witness x.
    """
    a, b = spec.validated(lattice.rank)
    characteristic = lattice.rank <= 8 and is_characteristic(lattice, a)
    b_matches = None
    if characteristic:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            bhat = solve_bhat(lattice, a, 24, samples=samples, seed=seed)
        if b is None:
            b = bhat.copy()
        b_matches = bool(((b - bhat) % 24 == 0).all())
    elif b is None:
        raise ValueError("spec must fix b when a is not characteristic")

    rng = np.random.default_rng(seed)
    xs = rng.integers(-50, 51, size=(int(samples), lattice.rank))

    report = {
        "samples": int(samples),
        "characteristic": characteristic,
        "b_congruent_mod24": b_matches,
        "b": [int(v) for v in b],
        "half_sum": {"passed": True, "witness": None},
        "refine48": {"applicable": bool(characteristic and b_matches)},
        "refine24": {"applicable": bool(characteristic and b_matches)},
    }
    for key in ("refine48", "refine24"):
        if report[key]["applicable"]:
            report[key].update(passed=True, witness=None)
        else:
            report[key].update(passed=None, witness=None)

    # f and ftilde in Python ints: a and b may sit near the int64 limit.
    a, b = a.tolist(), b.tolist()
    units = np.eye(lattice.rank, dtype=np.int64)
    shifted_b = [bk - 3 * lattice.trilinear(a, a, unit) for bk, unit in zip(b, units)]
    zero = [0] * lattice.rank
    f0 = _poly_f(lattice, a, b, zero)
    ft0 = _poly_f_tilde(lattice, a, shifted_b, zero)
    for x in xs.tolist():
        f2x = _poly_f(lattice, a, b, [2 * v for v in x])
        ft = _poly_f_tilde(lattice, a, shifted_b, x)
        if 2 * ft != f2x + f0 and report["half_sum"]["witness"] is None:
            report["half_sum"] = {"passed": False, "witness": x}
        if report["refine48"]["applicable"]:
            if (f2x - f0) % 48 != 0 and report["refine48"]["witness"] is None:
                report["refine48"].update(passed=False, witness=x)
            if (ft - ft0) % 24 != 0 and report["refine24"]["witness"] is None:
                report["refine24"].update(passed=False, witness=x)

    report["passed"] = bool(
        report["half_sum"]["passed"]
        and report["refine48"]["passed"] is not False
        and report["refine24"]["passed"] is not False
    )
    return report


def verify_refinement(lattice, h, samples=1000, seed=None):
    """Check T(x,y,z) against the third difference of a cubic refinement h.

    h maps integer vectors to rationals; the identity tested is
    T(x,y,z) = h(x+y+z) - h(x+y) - h(x+z) - h(y+z) + h(x) + h(y) + h(z) - h(0).
    """
    rng = np.random.default_rng(seed)
    triples = rng.integers(-9, 10, size=(int(samples), 3, lattice.rank))
    zero = np.zeros(lattice.rank, dtype=np.int64)
    h0 = Fraction(h(zero))
    for x, y, z in triples:
        total = (
            Fraction(h(x + y + z))
            - Fraction(h(x + y))
            - Fraction(h(x + z))
            - Fraction(h(y + z))
            + Fraction(h(x))
            + Fraction(h(y))
            + Fraction(h(z))
            - h0
        )
        if total != lattice.trilinear(x, y, z):
            return {
                "passed": False,
                "samples": int(samples),
                "witness": [x.tolist(), y.tolist(), z.tolist()],
            }
    return {"passed": True, "samples": int(samples), "witness": None}


def load_lattice_json(source):
    """Parse the lattice input format.

    Expected keys: rank, trilinear (full n x n x n array), and optionally
    a (default zero), b, modulus (default 24), seed (default 0).
    """
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = dict(source)
    try:
        rank = int(payload["rank"])
        lattice = TrilinearLattice(payload["trilinear"])
    except KeyError as exc:
        raise ValueError("missing required key %s" % exc)
    if lattice.rank != rank:
        raise ValueError(
            "declared rank %d does not match tensor rank %d" % (rank, lattice.rank)
        )
    a = payload.get("a") or [0] * rank
    spec = CubicFormSpec(a=tuple(int(v) for v in a),
                         b=tuple(int(v) for v in payload["b"]) if payload.get("b") else None)
    spec.validated(rank)
    return {
        "lattice": lattice,
        "spec": spec,
        "modulus": int(payload.get("modulus", 24)),
        "seed": int(payload.get("seed", 0)),
    }
