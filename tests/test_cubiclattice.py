"""Tests for the trilinear-lattice module: the mod-24 linearization, its
failure off the characteristic locus, integrality refinements, and the
third-difference check for cubic refinements."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
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


def test_import_leaves_numpy_out():
    # the package needs only the standard library; numpy is a test oracle.
    # Each entry point loads only what it runs: the lattice layer alone, and
    # no dataclasses (which pulls in inspect, ast, dis and tokenize) anywhere.
    import charmod

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(charmod.__file__).parents[1])
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
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    lattice, cli = json.loads(result.stdout)
    assert lattice == ["charmod", "charmod.cubiclattice"]
    assert not {"dataclasses", "inspect", "numpy"} & set(cli)


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
