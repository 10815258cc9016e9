"""Oracles for the finite certificates in ``charmod.cubiclattice``.

``is_characteristic`` decides the mod-2 condition on the n^2 basis pairs,
and ``solve_bhat`` and ``check_cubic_relations`` decide their cubic claims
on ``certificate_points``.  Here both are compared with exhaustion: the
4^n pair loop over (Z/2)^n, and every x and every candidate bhat in
(Z/m)^n, in numpy.  Each oracle has a negative control that shows it can
tell a wrong answer from a right one.
"""

import random
import warnings
from itertools import combinations_with_replacement, permutations
from math import comb

import numpy as np
import pytest

from charmod import cubiclattice
from charmod.cubiclattice import (
    CubicFormSpec,
    HypothesisWarning,
    NoSolution,
    TrilinearLattice,
    certificate_points,
    check_cubic_relations,
    is_characteristic,
    solve_bhat,
)


def random_tensor(rng, rank, entries=range(-3, 4)):
    """A symmetric tensor with one seeded entry per index multiset."""
    t = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for cell in combinations_with_replacement(range(rank), 3):
        value = rng.choice(entries)
        for i, j, k in set(permutations(cell)):
            t[i][j][k] = value
    return t


# ----------------------------------------------------------------------
# characteristic elements: basis pairs against the 4^n pair loop
# ----------------------------------------------------------------------


def pair_loop_characteristic(tensor, a):
    """T(a,x,y) = T(x,x,y) + T(x,y,y) mod 2 on all 4^n pairs of (Z/2)^n."""
    t = np.asarray(tensor, dtype=np.int64)
    n = t.shape[0]
    u = np.indices((2,) * n).reshape(n, -1).T
    pair_a = u @ np.einsum("ijk,k->ij", t, np.asarray(a, dtype=np.int64)) @ u.T
    cubic = np.einsum("mi,mj,ijk->mk", u, u, t) @ u.T  # T(x_m, x_m, x_l)
    return bool(((pair_a - cubic - cubic.T) % 2 == 0).all())


def test_characteristic_matches_pair_loop():
    rng = random.Random(6)
    verdicts = {True: 0, False: 0}
    for rank in (1, 2, 3, 4):
        for _ in range(80):
            tensor = random_tensor(rng, rank)
            a = [rng.randrange(-4, 5) for _ in range(rank)]
            want = pair_loop_characteristic(tensor, a)
            assert is_characteristic(TrilinearLattice(tensor), a) is want, (tensor, a)
            verdicts[want] += 1
    assert min(verdicts.values()) >= 40, verdicts


def test_pair_loop_sees_a_dropped_basis_pair():
    # the bilinear test on the diagonal pairs i = j alone is wrong, and the
    # oracle says so on some seeded form
    def diagonal_pairs_only(tensor, a):
        n = len(tensor)
        return all(sum(a[k] * tensor[k][i][i] for k in range(n)) % 2 == 0 for i in range(n))

    rng = random.Random(6)
    cases = [(random_tensor(rng, 2), [rng.randrange(2), rng.randrange(2)]) for _ in range(50)]
    assert any(diagonal_pairs_only(t, a) != pair_loop_characteristic(t, a) for t, a in cases)


# ----------------------------------------------------------------------
# the mod-m defect: certificate points against (Z/m)^n
# ----------------------------------------------------------------------


def vanishing_candidates(tensor, a, points, modulus):
    """Every c in (Z/m)^n with 4x^3 + 6ax^2 + 3a^2x = c.x mod m at each point."""
    t = np.asarray(tensor, dtype=np.int64) % modulus
    a = np.asarray(a, dtype=np.int64) % modulus
    x = np.asarray(points, dtype=np.int64).reshape(-1, t.shape[0])
    n = t.shape[0]
    candidates = np.indices((modulus,) * n).reshape(n, -1).T
    base = (
        4 * np.einsum("ijk,mi,mj,mk->m", t, x, x, x)
        + 6 * np.einsum("ijk,i,mj,mk->m", t, a, x, x)
        + 3 * x @ np.einsum("ijk,i,j->k", t, a, a)
    )
    table = (base[None, :] - candidates @ x.T) % modulus
    return [tuple(c) for c in candidates[~table.any(axis=1)].tolist()]


def grid(rank, modulus):
    return np.indices((modulus,) * rank).reshape(rank, -1).T


def solver_answer(tensor, a, modulus):
    """[bhat] from solve_bhat, or [] when it raises NoSolution."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisWarning)
        try:
            return [tuple(solve_bhat(TrilinearLattice(tensor), a, modulus))]
        except NoSolution:
            return []


def check_against_exhaustion(tensor, a, modulus):
    """The certificate and the solver agree with exhaustion; returns the
    exhaustive solutions."""
    rank = len(tensor)
    solutions = vanishing_candidates(tensor, a, grid(rank, modulus), modulus)
    certified = vanishing_candidates(tensor, a, certificate_points(rank), modulus)
    assert certified == solutions, (tensor, a, modulus)
    assert solver_answer(tensor, a, modulus) == solutions, (tensor, a, modulus)
    return solutions


def test_certificate_points_count_and_shape():
    for rank in range(1, 9):
        points = certificate_points(rank)
        assert len(points) == len(set(points)) == comb(rank + 3, 3)
        assert all(min(x) >= 0 and sum(x) <= 3 for x in points)


def test_certificate_matches_exhaustion_on_every_rank1_form():
    # the defect mod m depends on T and a mod 24 only, so t and a in
    # range(24) are every rank-1 case
    solved = unsolved = 0
    for t in range(24):
        for a in range(24):
            for modulus in (24, 12, 3):
                found = check_against_exhaustion([[[t]]], [a], modulus)
                solved += len(found)
                unsolved += not found
    assert solved and unsolved


def test_certificate_matches_exhaustion_on_rank2_sample():
    rng = random.Random(2)
    solved = unsolved = 0
    for _ in range(40):
        tensor = random_tensor(rng, 2, entries=range(24))
        a = [rng.randrange(24), rng.randrange(24)]
        for modulus in (24, 12, 3):
            found = check_against_exhaustion(tensor, a, modulus)
            solved += len(found)
            unsolved += not found
    assert solved >= 20 and unsolved >= 20, (solved, unsolved)


def test_exhaustion_sees_a_shifted_bhat_entry():
    rng = random.Random(2)
    for _ in range(20):
        tensor = random_tensor(rng, 2, entries=range(24))
        if not is_characteristic(TrilinearLattice(tensor), [0, 0]):
            continue
        bhat = solve_bhat(TrilinearLattice(tensor), [0, 0], 24)
        shifted = (bhat[0], (bhat[1] + 1) % 24)
        solutions = vanishing_candidates(tensor, [0, 0], grid(2, 24), 24)
        assert solutions == [tuple(bhat)]
        assert shifted not in solutions


# The defect is special enough that on these samples dropping one point at
# rank 1, or any point but (1, 1) at rank 2, changes no verdict; so rank 1
# drops two points.
@pytest.mark.parametrize("rank, dropped", [(1, {(2,), (3,)}), (2, {(1, 1)})])
def test_exhaustion_sees_dropped_certificate_points(rank, dropped):
    rng = random.Random(3)
    points = [x for x in certificate_points(rank) if x not in dropped]
    misses = 0
    for _ in range(60):
        tensor = random_tensor(rng, rank, entries=range(24))
        a = [rng.randrange(24) for _ in range(rank)]
        misses += vanishing_candidates(tensor, a, points, 24) != vanishing_candidates(
            tensor, a, grid(rank, 24), 24
        )
    assert misses


# ----------------------------------------------------------------------
# rank past the old pair-loop limit
# ----------------------------------------------------------------------


def plain_defect(tensor, a, bhat, x):
    """4x^3 + 6ax^2 + 3a^2x - bhat.x over the full tensor, in Python ints."""
    n = len(tensor)
    total = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = tensor[i][j][k]
                total += t * (4 * x[i] * x[j] * x[k] + 6 * a[i] * x[j] * x[k] + 3 * a[i] * a[j] * x[k])
    return total - sum(b * v for b, v in zip(bhat, x))


def test_rank10_form_is_decided():
    # even off-diagonal part: a is characteristic iff a_i is even wherever
    # T(e_i, e_i, e_i) is odd
    rng = random.Random(10)
    tensor = random_tensor(rng, 10, entries=range(-4, 5, 2))
    for i in range(10):
        tensor[i][i][i] = 1 if i % 3 == 0 else 2
    lat = TrilinearLattice(tensor)
    good = [rng.randrange(-3, 4) * 2 if i % 3 == 0 else rng.randrange(-5, 6) for i in range(10)]
    bad = list(good)
    bad[3] += 1
    assert is_characteristic(lat, good) and pair_loop_characteristic(tensor, good)
    assert not is_characteristic(lat, bad) and not pair_loop_characteristic(tensor, bad)

    def forced(a):
        """The only candidate: the defect at e_k is 0 iff bhat_k is this."""
        units = [[int(i == k) for i in range(10)] for k in range(10)]
        return [plain_defect(tensor, a, [0] * 10, e) % 24 for e in units]

    bhat = solve_bhat(lat, good, 24)
    assert bhat == forced(good)
    for _ in range(200):
        x = [rng.randrange(24) for _ in range(10)]
        assert plain_defect(tensor, good, bhat, x) % 24 == 0, x
    with pytest.warns(HypothesisWarning):
        with pytest.raises(NoSolution) as info:
            solve_bhat(lat, bad, 24)
    assert plain_defect(tensor, bad, forced(bad), info.value.x) % 24 == info.value.value != 0

    report = check_cubic_relations(lat, CubicFormSpec(a=tuple(good)))
    assert report["passed"] and report["refine48"]["passed"] and report["refine24"]["passed"]
    assert report["points"] == comb(13, 3)


# ----------------------------------------------------------------------
# the cubic relations
# ----------------------------------------------------------------------


def test_relations_match_exhaustion_rank1():
    for t in range(-3, 4):
        lat = TrilinearLattice([[[t]]])
        for a in range(0, 8, 2):
            for shift in (0, 24, 5):
                b = solve_bhat(lat, [a], 24)[0] + shift

                def f(x):
                    return t * (a + x) ** 3 - b * (a + x)

                def ft(x):
                    y = a + x
                    return 4 * t * y ** 3 - 6 * t * a * y * y - (b - 3 * t * a * a) * y

                report = check_cubic_relations(lat, CubicFormSpec(a=(a,), b=(b,)))
                assert report["half_sum"]["passed"] == all(
                    2 * ft(x) == f(2 * x) + f(0) for x in range(-48, 48)
                )
                assert report["refine48"]["applicable"] == (shift != 5)
                if shift != 5:
                    assert report["refine48"]["passed"] == all(
                        (f(2 * x) - f(0)) % 48 == 0 for x in range(48)
                    )
                    assert report["refine24"]["passed"] == all(
                        (ft(x) - ft(0)) % 24 == 0 for x in range(24)
                    )


@pytest.mark.parametrize(
    "skewed_name, seen, unseen",
    [("_poly_f_tilde", "refine24", "refine48"), ("_poly_f", "refine48", "refine24")],
    ids=["f_tilde", "f"],
)
def test_relations_see_an_error_only_a_degree3_point_shows(monkeypatch, skewed_name, seen, unseen):
    # u (u - 1)(u - 2) with u = x0 vanishes at x0 = 0, 1, 2 and is 6 at
    # x0 = 3: only the degree-3 certificate point (3, 0) sees it, in the
    # half sum and in the integrality claim that reads the skewed side
    # (f is called at 2x, so its u is half its first coordinate)
    lat = TrilinearLattice([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    spec = CubicFormSpec(a=(0, 0))
    assert check_cubic_relations(lat, spec)["passed"]
    honest = getattr(cubiclattice, skewed_name)

    def skewed(lattice, a, b, x):
        u = x[0] // 2 if skewed_name == "_poly_f" else x[0]
        return honest(lattice, a, b, x) + u * (u - 1) * (u - 2)

    monkeypatch.setattr(cubiclattice, skewed_name, skewed)
    report = check_cubic_relations(lat, spec)
    assert report["half_sum"] == {"passed": False, "witness": [3, 0]}
    assert report[seen] == {"applicable": True, "passed": False, "witness": [3, 0]}
    assert report[unseen]["passed"] is True
    assert not report["passed"]
