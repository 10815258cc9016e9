"""Tests for the trilinear-lattice module: the mod-24 linearization, its
failure off the characteristic locus, integrality refinements, and the
third-difference check for cubic refinements."""

import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from math import lcm
from operator import add
from pathlib import Path

import numpy as np
import pytest

from charmod.cubiclattice import (
    CubicFormSpec,
    HypothesisWarning,
    NoSolution,
    TrilinearLattice,
    check_cubic_relations,
    is_characteristic,
    load_lattice_json,
    solve_bhat,
    verify_refinement,
)


def run_fresh(code):
    """Standard output of ``code`` run by a fresh interpreter on this package."""
    import charmod

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(charmod.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_leaves_numpy_out():
    # the package needs only the standard library; numpy is a test oracle.
    # Each entry point loads only what it runs: the lattice layer alone, and
    # no dataclasses (which pulls in inspect, ast, dis and tokenize) anywhere.
    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('charmod')\n"
        "                  or m in ('dataclasses', 'inspect', 'numpy'))\n"
        "import charmod.cubiclattice\n"
        "lattice = loaded()\n"
        "import charmod.cli\n"
        "print(json.dumps([lattice, loaded()]))\n"
    )
    lattice, cli = json.loads(run_fresh(code))
    assert lattice == ["charmod", "charmod.cubiclattice"]
    assert not {"dataclasses", "inspect", "numpy"} & set(cli)


#: what the lattice core never runs: json and fractions (with decimal and
#: numbers) are read only by load_lattice_json and _ratio's fallback
DEFERRED = ("json", "_json", "fractions", "decimal", "_decimal", "numbers", "__future__")


def modules_added_by(statement):
    """The modules ``statement`` adds to a bare interpreter's sys.modules."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "%s\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n" % statement
    )
    return set(run_fresh(code).split())


def deferred(modules):
    return sorted(m for m in modules if m in DEFERRED or m.startswith("json."))


def test_the_lattice_import_loads_no_json_or_fractions():
    assert deferred(modules_added_by("import charmod.cubiclattice")) == []
    # the control: the probe sees them where they are imported
    assert {"json", "fractions"} <= set(deferred(modules_added_by("import charmod.cli")))


def test_the_deferred_imports_run_in_a_fresh_interpreter(tmp_path):
    # in-process tests run with json and fractions already loaded, so only a
    # fresh interpreter reaches the imports inside the two functions
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"rank": 2, "trilinear": [[[0, 1], [1, 0]], [[1, 0], [0, 0]]]}))
    code = (
        "import sys\n"
        "assert 'json' not in sys.modules and 'fractions' not in sys.modules\n"
        "from charmod.cubiclattice import load_lattice_json, verify_refinement\n"
        "lattice = load_lattice_json(%r)['lattice']\n"
        "good = verify_refinement(lattice, lambda x: '%%d/6' %% lattice.cube(x), samples=20, seed=3)\n"
        "bad = verify_refinement(lattice, lambda x: '%%d/5' %% lattice.cube(x), samples=20, seed=3)\n"
        "print(lattice.rank, good['passed'], bad['passed'])\n" % str(path)
    )
    assert run_fresh(code).split() == ["2", "True", "False"]


def rank1_lattice():
    return TrilinearLattice([[[1]]])


def rank2_lattice():
    # symmetrization of x1^2 x2
    t = np.zeros((2, 2, 2), dtype=int)
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 1
    return TrilinearLattice(t)


# ----------------------------------------------------------------------
# construction and basic evaluation
# ----------------------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(ValueError):
        TrilinearLattice([[[1, 2]]])
    bad = np.zeros((2, 2, 2), dtype=int)
    bad[0, 0, 1] = 1  # no symmetric partners
    with pytest.raises(ValueError):
        TrilinearLattice(bad)


def test_trilinear_values():
    lat = rank1_lattice()
    assert lat.cube([2]) == 8
    assert lat.trilinear([2], [3], [5]) == 30
    lat2 = rank2_lattice()
    assert lat2.cube([1, 1]) == 3
    assert lat2.trilinear([1, 0], [1, 0], [0, 1]) == 1


def test_trilinear_is_exact_past_int64():
    lat = TrilinearLattice([[[2**40]]])
    assert lat.cube([2**21]) == 2**103
    assert lat.trilinear([2**21], [3], [-(2**30)]) == -3 * 2**91


def test_solve_bhat_is_exact_past_int64():
    # 8x^3 = 8x (mod 24) for every x; an int64 einsum wraps on T*x^3
    assert solve_bhat(TrilinearLattice([[[2**59]]]), [0], 24) == [8]
    assert solve_bhat(TrilinearLattice([[[2**59 + 1]]]), [0], 24) == [12]


def test_cubic_relations_are_exact_past_int64():
    lat = rank1_lattice()
    # relation (a) is an identity, whatever the size of a and b
    report = check_cubic_relations(lat, CubicFormSpec(a=(2**40,), b=(2**62,)))
    assert report["half_sum"] == {"passed": True, "witness": None}
    assert report["b_congruent_mod24"] is False
    assert report["passed"]
    # b = bhat (mod 24): both refinements apply and hold
    report = check_cubic_relations(
        lat, CubicFormSpec(a=(2**40,), b=(2**62 - 12,)), samples=200, seed=3
    )
    assert report["b_congruent_mod24"] is True
    assert report["refine48"]["passed"] and report["refine24"]["passed"]
    assert report["passed"]


def test_trilinear_matches_einsum_on_random_rank3():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raw = rng.integers(-3, 4, size=(3, 3, 3))
        t = sum(np.transpose(raw, axes) for axes in
                ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)))
        lat = TrilinearLattice(t)
        x, y, z = rng.integers(-50, 51, size=(3, 3))
        assert lat.trilinear(x, y, z) == int(np.einsum("ijk,i,j,k->", t, x, y, z))
        assert lat.cube(x) == int(np.einsum("ijk,i,j,k->", t, x, x, x))


def test_characteristic_rank1():
    lat = rank1_lattice()
    assert is_characteristic(lat, [0])
    assert is_characteristic(lat, [2])
    assert not is_characteristic(lat, [1])


def test_characteristic_rank2():
    lat = rank2_lattice()
    # T(x,x,y) + T(x,y,y) = x1^2 y2 + x2 y1^2 mod 2 is not linear in x,
    # so zero is NOT characteristic here
    assert not is_characteristic(lat, [0, 0])
    assert is_characteristic(lat, [1, 0])


# ----------------------------------------------------------------------
# the mod-24 linearization
# ----------------------------------------------------------------------


def test_solve_bhat_rank1():
    lat = rank1_lattice()
    assert solve_bhat(lat, [2], 24) == [4]
    assert solve_bhat(lat, [0], 24) == [4]
    assert solve_bhat(lat, [0], 12) == [4]
    assert solve_bhat(lat, [0], 3) == [1]
    with pytest.raises(ValueError):
        solve_bhat(lat, [0], 5)


def test_solve_bhat_fails_off_characteristic():
    lat = rank1_lattice()
    with pytest.warns(HypothesisWarning):
        with pytest.raises(NoSolution) as info:
            solve_bhat(lat, [1], 24)
    assert info.value.modulus == 24
    assert info.value.x == (2,)
    assert info.value.value == 12


def test_solve_bhat_rank2():
    lat = rank2_lattice()
    assert solve_bhat(lat, [1, 0], 24) == [0, 3]


def test_solve_bhat_rank3_random_verification():
    # diagonal form x^3 + y^3 + z^3; characteristic elements are the even
    # vectors since T(x,x,y) + T(x,y,y) is identically even here
    t = np.zeros((3, 3, 3), dtype=int)
    for i in range(3):
        t[i, i, i] = 1
    lat = TrilinearLattice(t)
    assert not is_characteristic(lat, [1, 1, 1])
    assert is_characteristic(lat, [2, 2, 2])
    # 4 + 6*2 + 3*4 = 28 = 4 mod 24 on each coordinate
    assert solve_bhat(lat, [2, 2, 2], 24, seed=7) == [4, 4, 4]


def test_bhat_unique_by_exhaustion():
    # over (Z/24)^1 only one dual vector works for each characteristic a
    lat = rank1_lattice()
    for a in (0, 2, 4):
        good = [
            b
            for b in range(24)
            if all((4 * x ** 3 + 6 * a * x * x + 3 * a * a * x - b * x) % 24 == 0
                   for x in range(24))
        ]
        assert good == [int(solve_bhat(lat, [a], 24)[0])], a


# ----------------------------------------------------------------------
# polynomial relations and integrality refinements
# ----------------------------------------------------------------------


def test_cubic_relations_rank1():
    lat = rank1_lattice()
    report = check_cubic_relations(lat, CubicFormSpec(a=(2,)), samples=300, seed=5)
    assert report["passed"]
    assert report["characteristic"]
    assert report["b"] == [4]
    assert report["b_congruent_mod24"]
    assert report["half_sum"]["passed"]
    assert report["refine48"] == {"applicable": True, "passed": True, "witness": None}
    assert report["refine24"] == {"applicable": True, "passed": True, "witness": None}


def test_cubic_relations_congruent_b():
    # b = 28 = 4 + 24 still satisfies the refinements
    lat = rank1_lattice()
    report = check_cubic_relations(lat, CubicFormSpec(a=(2,), b=(28,)), samples=200, seed=1)
    assert report["passed"]
    assert report["b_congruent_mod24"]
    assert report["refine48"]["passed"]


def test_cubic_relations_incongruent_b():
    # the half-sum identity holds for every (a, b); the refinements are
    # simply not applicable when b is off the linearization class
    lat = rank1_lattice()
    report = check_cubic_relations(lat, CubicFormSpec(a=(2,), b=(5,)), samples=200, seed=1)
    assert report["half_sum"]["passed"]
    assert not report["b_congruent_mod24"]
    assert report["refine48"]["passed"] is None
    assert report["passed"]


def test_cubic_relations_needs_b_when_not_characteristic():
    lat = rank1_lattice()
    with pytest.raises(ValueError):
        check_cubic_relations(lat, CubicFormSpec(a=(1,)), samples=50)
    # with b pinned it still samples the universal identity
    report = check_cubic_relations(lat, CubicFormSpec(a=(1,), b=(0,)), samples=50, seed=2)
    assert not report["characteristic"]
    assert report["half_sum"]["passed"]


def test_spec_validation():
    with pytest.raises(ValueError):
        CubicFormSpec(a=(1, 2)).validated(1)
    with pytest.raises(ValueError):
        CubicFormSpec(a=(1,), b=(1, 2)).validated(1)


# ----------------------------------------------------------------------
# cubic refinements via third differences
# ----------------------------------------------------------------------


def test_refinement_cube_over_six():
    lat = rank1_lattice()
    report = verify_refinement(lat, lambda v: Fraction(int(v[0]) ** 3, 6), samples=200, seed=3)
    assert report == {"passed": True, "samples": 200, "witness": None}


def test_refinement_ignores_lower_order_terms():
    lat = rank1_lattice()

    def h(v):
        x = int(v[0])
        return Fraction(x ** 3, 6) + Fraction(7 * x, 3) - Fraction(5, 2) * x * x + 9

    assert verify_refinement(lat, h, samples=200, seed=4)["passed"]

    # denominators 4, 6 and 10, so no single value's denominator need be
    # the common one
    def mixed(v):
        x = v[0]
        return Fraction(x ** 3, 6) + Fraction(x * x, 4) + Fraction(x, 10)

    assert verify_refinement(lat, mixed, samples=200, seed=5)["passed"]


def test_refinement_wrong_scale_fails():
    lat = rank1_lattice()
    report = verify_refinement(lat, lambda v: Fraction(int(v[0]) ** 3, 3), samples=200, seed=3)
    assert not report["passed"]
    assert report["witness"] is not None
    x, y, z = (np.asarray(v) for v in report["witness"])
    assert lat.trilinear(x, y, z) != 0


def test_refinement_rank2():
    lat = rank2_lattice()

    def h(v):
        x1, x2 = (int(c) for c in v)
        return Fraction(x1 * x1 * x2, 2) + Fraction(x1, 2) * x2

    assert verify_refinement(lat, h, samples=200, seed=8)["passed"]


@pytest.mark.parametrize("samples", [0, -5])
def test_refinement_that_samples_nothing_raises(samples):
    # no triple drawn means nothing checked, which must not read as a pass
    with pytest.raises(ValueError, match="at least 1"):
        verify_refinement(rank1_lattice(), lambda v: Fraction(int(v[0]) ** 3, 6), samples=samples)


@pytest.mark.parametrize("samples", [1.5, 2.0, "3", None])
def test_refinement_samples_must_be_an_integer(samples):
    # 1.5 used to run one sample and report 1; "3" and None hit a bare '<'
    with pytest.raises(ValueError, match="samples must be an integer"):
        verify_refinement(rank1_lattice(), lambda v: Fraction(int(v[0]) ** 3, 6), samples=samples)


def test_refinement_samples_read_any_integer_type():
    def h(v):
        return Fraction(int(v[0]) ** 3, 6)

    report = verify_refinement(rank1_lattice(), h, samples=np.int64(3), seed=1)
    assert report == verify_refinement(rank1_lattice(), h, samples=3, seed=1)
    assert type(report["samples"]) is int


def rank3_lattice():
    # symmetrization of x1^3 + 2 x1 x2 x3 - x2^2 x3 + 3 x3^3
    entries = {(0, 0, 0): 1, (0, 1, 2): 2, (1, 1, 2): -1, (2, 2, 2): 3}
    t = [[[entries.get(tuple(sorted((i, j, k))), 0) for k in range(3)] for j in range(3)] for i in range(3)]
    return TrilinearLattice(t)


LATTICES = {1: rank1_lattice, 2: rank2_lattice, 3: rank3_lattice}


def third_difference_points(rank, samples, seed, swap=False):
    """The points h must be called on, in order: 0 once, then for each
    triple drawn x+y+z, x+y, x+z, y+z, x, y, z (x+z before x+y if swap)."""
    rng = random.Random(seed)
    points = [[0] * rank]
    for _ in range(samples):
        drawn = rng.choices(range(-9, 10), k=3 * rank)
        x, y, z = drawn[:rank], drawn[rank:2 * rank], drawn[2 * rank:]
        xy = [a + b for a, b in zip(x, y)]
        xz = [a + c for a, c in zip(x, z)]
        yz = [b + c for b, c in zip(y, z)]
        xyz = [a + b + c for a, b, c in zip(x, y, z)]
        points += [xyz] + ([xz, xy] if swap else [xy, xz]) + [yz, x, y, z]
    return points


def old_refinement(lattice, h, samples, seed):
    """verify_refinement's loop as it was before it was unrolled: one list
    of (numerator, denominator) values zipped with the eight signs."""
    signs = (1, -1, -1, -1, 1, 1, 1, -1)

    def ratio(value):
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return value.numerator, value.denominator

    rng = random.Random(seed)
    n = lattice.rank
    h0 = ratio(h([0] * n))
    for _ in range(samples):
        drawn = rng.choices(range(-9, 10), k=3 * n)
        x, y, z = drawn[:n], drawn[n:2 * n], drawn[2 * n:]
        xy, xz, yz = list(map(add, x, y)), list(map(add, x, z)), list(map(add, y, z))
        values = [ratio(h(v)) for v in (list(map(add, xy, z)), xy, xz, yz, x, y, z)]
        values.append(h0)
        den = lcm(*[d for _, d in values])
        total = sum(s * num * (den // d) for s, (num, d) in zip(signs, values))
        if total != lattice.trilinear(x, y, z) * den:
            return {"passed": False, "samples": samples, "witness": [x, y, z]}
    return {"passed": True, "samples": samples, "witness": None}


def cube_over_six(lattice):
    return lambda v: Fraction(lattice.cube(v), 6)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("samples", [1, 200])
def test_refinement_calls_h_on_the_pinned_points_in_order(rank, samples):
    lat = LATTICES[rank]()
    calls = []

    def h(v):
        calls.append(list(v))
        return Fraction(lat.cube(v), 6)

    report = verify_refinement(lat, h, samples=samples, seed=17)
    assert report == {"passed": True, "samples": samples, "witness": None}
    assert len(calls) == 7 * samples + 1
    assert calls == third_difference_points(rank, samples, 17)
    # the controls: another seed, or x+y and x+z swapped, must not match
    assert calls != third_difference_points(rank, samples, 18)
    assert calls != third_difference_points(rank, samples, 17, swap=True)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_refinement_wrong_at_one_point_gives_the_old_witness(rank):
    lat = LATTICES[rank]()
    points = third_difference_points(rank, 200, 23)
    bad = points[1 + 7 * 40 + 2]  # x+z of the 41st triple
    first = (points.index(bad) - 1) // 7  # the first triple that reaches it

    def h(v):
        return Fraction(lat.cube(v), 6) + (1 if list(v) == bad else 0)

    report = verify_refinement(lat, h, samples=200, seed=23)
    assert report == old_refinement(lat, h, 200, 23)
    assert not report["passed"]
    x, y, z = points[1 + 7 * first + 4:1 + 7 * first + 7]
    assert report["witness"] == [x, y, z]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_refinement_of_a_perturbed_entry_fails(rank):
    lat = LATTICES[rank]()
    t = [[list(row) for row in plane] for plane in lat.tensor]
    t[0][0][0] += 1
    perturbed = TrilinearLattice(t)
    h = cube_over_six(lat)
    assert verify_refinement(lat, h, samples=200, seed=29)["passed"]
    report = verify_refinement(perturbed, h, samples=200, seed=29)
    assert not report["passed"]
    assert report == old_refinement(perturbed, h, 200, 29)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_refinement_sees_a_denominator_only_h0_has(rank):
    # h(0) = 1/7 and every other point over 6: the lcm must take in h(0)'s
    # denominator, or its term floors to 0 and the triple passes
    lat = LATTICES[rank]()
    cube = cube_over_six(lat)

    def h(v):
        return Fraction(1, 7) if not any(v) else cube(v)

    report = verify_refinement(lat, h, samples=50, seed=37)
    assert report == old_refinement(lat, h, 50, 37)
    assert report["witness"] == third_difference_points(rank, 1, 37)[-3:]


def mixed_values(lattice, scale):
    """T's refinement x^3/scale plus lower terms over 4 and 10, returned as
    an int when integral, else as a Fraction or an unreduced "p/q" string."""

    def h(v):
        value = Fraction(lattice.cube(v), scale) + Fraction(v[0] ** 2, 4) - Fraction(v[-1], 10)
        if value.denominator == 1:
            return int(value)
        if sum(v) % 2:
            return "%d/%d" % (3 * value.numerator, 3 * value.denominator)
        return value

    return h


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_refinement_reads_int_fraction_and_string_values(rank):
    lat = LATTICES[rank]()
    kinds = set()
    h = mixed_values(lat, 6)

    def counted(v):
        value = h(v)
        kinds.add(type(value))
        return value

    report = verify_refinement(lat, counted, samples=200, seed=31)
    assert report == old_refinement(lat, h, 200, 31) == {"passed": True, "samples": 200, "witness": None}
    assert kinds == {int, Fraction, str}
    # the control: the wrong scale fails, with the old witness
    wrong = mixed_values(lat, 3)
    report = verify_refinement(lat, wrong, samples=200, seed=31)
    assert not report["passed"]
    assert report == old_refinement(lat, wrong, 200, 31)


def test_public_cube_and_trilinear_still_check_their_input():
    lat = rank1_lattice()
    with pytest.raises(TypeError):
        lat.cube([1.5])
    with pytest.raises(TypeError):
        lat.trilinear([1], [1.5], [1])
    with pytest.raises(TypeError):
        lat.trilinear([1], [1], ["1"])
    assert lat.cube(np.array([3])) == 27 and lat.trilinear((1,), [2], np.array([3])) == 6


def test_public_cube_and_trilinear_check_the_length():
    lat = rank2_lattice()
    # too long: the extra entries used to be ignored
    with pytest.raises(ValueError, match="length 2, got 3"):
        lat.cube([1, 2, 99])
    with pytest.raises(ValueError, match="length 2, got 3, 2 and 3"):
        lat.trilinear([1, 2, 5], [1, 2], [1, 2, 7])
    # too short: cube used to raise IndexError
    with pytest.raises(ValueError, match="length 2, got 1"):
        lat.cube([1])
    with pytest.raises(ValueError, match="length 2, got 2, 2 and 1"):
        lat.trilinear([1, 2], [1, 2], [1])
    # a zero tensor has no entries to index with, and still checks
    zero = TrilinearLattice([[[0]]])
    with pytest.raises(ValueError, match="length 1, got 3"):
        zero.cube([5, 6, 7])
    with pytest.raises(ValueError, match="length 1, got 0"):
        zero.trilinear([], [1], [1])
    # the controls: the right length, as lists or numpy int vectors
    assert lat.cube([1, 2]) == 6 and lat.trilinear([1, 2], [1, 2], [1, 2]) == 6
    assert lat.cube(np.array([1, 2])) == 6
    assert lat.trilinear(np.array([1, 0]), (1, 0), np.array([0, 1], dtype=np.int32)) == 1
    assert zero.cube([5]) == 0 and zero.trilinear([5], [6], [7]) == 0


# ----------------------------------------------------------------------
# input parsing
# ----------------------------------------------------------------------


def test_load_lattice_from_dict():
    loaded = load_lattice_json(
        {"rank": 1, "trilinear": [[[1]]], "a": [2], "modulus": 24, "seed": 3}
    )
    assert loaded["lattice"].rank == 1
    assert loaded["spec"].a == (2,)
    assert loaded["spec"].b is None
    assert loaded["modulus"] == 24
    assert "seed" not in loaded


def test_load_lattice_from_file(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"rank": 1, "trilinear": [[[1]]], "b": [4]}))
    loaded = load_lattice_json(str(path))
    assert loaded["spec"].a == (0,)
    assert loaded["spec"].b == (4,)
    assert loaded["modulus"] == 24
    assert "seed" not in loaded


def test_load_lattice_errors():
    with pytest.raises(ValueError):
        load_lattice_json({"rank": 1})
    with pytest.raises(ValueError):
        load_lattice_json({"rank": 2, "trilinear": [[[1]]]})
    with pytest.raises(ValueError):
        load_lattice_json({"rank": 1, "trilinear": [[[1]]], "a": [1, 2]})
