"""Controls for the benchmark's checkers: each accepts a known-good output
and rejects the same output with one value perturbed.

Run with ``python3 -m pytest benchmark/test_oracles.py`` from the repo root.
"""

import copy
import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

#: multipliers as ``charmod verify --order 24 --format json`` prints them
MULTIPLIERS = {
    "fact_spinc_q": "1/1296*x^3 - 1/1152*c^4*x + 1/2880*c^6 - 1/60480*p3 - 1/8640*p2*x"
    " + 1/60480*p1*p2 + 1/17280*p1^2*x - 1/181440*p1^3",
    "fact_spinc_r": "1/10368*x^3 - 1/2304*c^4*x + 1/2880*c^6 - 1/60480*p3 - 1/17280*p2*x"
    " + 1/60480*p1*p2 + 1/34560*p1^2*x - 1/181440*p1^3",
    "fact_orient_q": "4/81*x^3 + 62/945*p3 + 14/135*p2*x - 62/945*p1*p2 - 7/135*p1^2*x"
    " + 62/2835*p1^3",
    "fact_orient_r": "1/162*x^3 + 62/945*p3 + 7/135*p2*x - 62/945*p1*p2 - 7/270*p1^2*x"
    " + 62/2835*p1^3",
}
IDS = ("o1", "fact_spinc_q", "fact_spinc_r", "fact_orient_q", "fact_orient_r", "pc_theorem")

E8_TEXT = """lattice theta:    [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400, 181680, 272160, 319680, 490560]
eighth-power sum: [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400, 181680, 272160, 319680, 490560]
weight-4 form:    [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400, 181680, 272160, 319680, 490560]
character:        [1, 248, 4124, 34752, 213126, 1057504, 4530744, 17333248, 60655377, 197230000, 603096260, 1749556736, 4848776870]
equal: true"""

THETA = {
    "kind": "E2",
    "tau": "1.1j",
    "v": "None",
    "shift_residual": 5.9e-18,
    "inversion_residual": 2.2e-16,
    "tail_bound": 7.0e-96,
    "passed": True,
}

TENSOR3 = [
    [[0, 3, 0], [3, 0, 2], [0, 2, 0]],
    [[3, 0, 2], [0, 3, -2], [2, -2, -3]],
    [[0, 2, 0], [2, -2, -3], [0, -3, 0]],
]
A3 = [1, 6, 7]
BHAT3 = [0, 12, 0]


def relations(b):
    return {
        "samples": 1000,
        "characteristic": True,
        "b_congruent_mod24": True,
        "b": list(b),
        "half_sum": {"passed": True, "witness": None},
        "refine48": {"applicable": True, "passed": True, "witness": None},
        "refine24": {"applicable": True, "passed": True, "witness": None},
        "passed": True,
    }


LATTICE = {
    "rank": 3,
    "modulus": 24,
    "characteristic": True,
    "bhat": BHAT3,
    "relations": relations(BHAT3),
    "passed": True,
}


def registry_reports(order=24):
    return [
        {
            "id": i,
            "status": "pass",
            "witness": "",
            "order": order,
            "data": {"multiplier": MULTIPLIERS[i]} if i in MULTIPLIERS else {},
        }
        for i in IDS
    ]


def test_registry_accepts_program_output():
    assert oracles.check_registry(registry_reports(), IDS, 24) == []


def test_registry_rejects_perturbed_reports():
    shifted = registry_reports()
    shifted[1]["data"]["multiplier"] = MULTIPLIERS["fact_spinc_q"].replace("1/1296*x^3", "1/1295*x^3")
    vacuous = registry_reports()
    vacuous[1]["data"]["multiplier"] = "0"
    failed = registry_reports()
    failed[0]["status"] = "fail"
    witnessed = registry_reports()
    witnessed[5]["witness"] = "p1"
    swapped = registry_reports()
    swapped[0], swapped[1] = swapped[1], swapped[0]
    for reports in (shifted, vacuous, failed, witnessed, swapped, registry_reports(12)):
        assert oracles.check_registry(reports, IDS, 24)


def test_fact_multiplier_is_nonzero_for_every_class():
    for reg_id in oracles.FACT_CLASSES:
        assert oracles.fact_multiplier(reg_id) != 0


def test_e8_accepts_program_output():
    assert oracles.check_e8(E8_TEXT, 12) == []


def test_e8_rejects_perturbed_rows():
    off_character = E8_TEXT.replace("4124,", "4125,")
    off_theta = E8_TEXT.replace("[1, 240, 2160", "[1, 241, 2160", 1)
    unequal = E8_TEXT.replace("equal: true", "equal: false")
    missing = "\n".join(E8_TEXT.splitlines()[1:])
    for text in (off_character, off_theta, unequal, missing):
        assert oracles.check_e8(text, 12)


def test_theta_check():
    assert oracles.check_theta(THETA, "E2", 1e-8) == []
    for key, value in (("passed", False), ("inversion_residual", 1e-3), ("kind", "theta")):
        assert oracles.check_theta(dict(THETA, **{key: value}), "E2", 1e-8)


def test_lattice_report():
    assert oracles.check_lattice_report(LATTICE, TENSOR3, A3) == []
    off = copy.deepcopy(LATTICE)
    off["bhat"][1] += 1
    half_sum = copy.deepcopy(LATTICE)
    half_sum["relations"]["half_sum"] = {"passed": False, "witness": [1, 0, 0]}
    not_char = dict(LATTICE, characteristic=False)
    other_b = copy.deepcopy(LATTICE)
    other_b["relations"]["b"] = [0, 12, 24]
    for report in (off, half_sum, not_char, other_b):
        assert oracles.check_lattice_report(report, TENSOR3, A3)


def basis_bhat(tensor, a, modulus):
    """bhat read off the basis vectors; right whenever a is characteristic."""
    rank = len(tensor)
    basis = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return [
        (4 * tensor[i][i][i] + 6 * oracles.trilinear(tensor, a, e, e) + 3 * oracles.trilinear(tensor, a, a, e)) % modulus
        for i, e in enumerate(basis)
    ]


def grid_defect_free(tensor, a, bhat, modulus):
    """The literal check: the defect vanishes at every point of (Z/m)^n."""
    for x in itertools.product(range(modulus), repeat=len(tensor)):
        value = (
            4 * oracles.trilinear(tensor, x, x, x)
            + 6 * oracles.trilinear(tensor, a, x, x)
            + 3 * oracles.trilinear(tensor, a, a, x)
            - sum(b * v for b, v in zip(bhat, x))
        )
        if value % modulus:
            return False
    return True


def rank2(t):
    return [[[t[0], t[1]], [t[1], t[2]]], [[t[1], t[2]], [t[2], t[3]]]]


def test_difference_points_agree_with_the_full_grid():
    rng = random.Random(5)
    for _ in range(6):
        tensor = rank2([rng.randint(-3, 3) for _ in range(4)])
        a = [rng.randrange(8), rng.randrange(8)]
        bhat = [rng.randrange(24), rng.randrange(24)]
        if rng.random() < 0.5:
            bhat = basis_bhat(tensor, a, 24)
        assert (oracles.bhat_defect(tensor, a, bhat, 24) is None) == grid_defect_free(tensor, a, bhat, 24)


def test_bhat_off_by_one_is_rejected():
    tensor = rank2([1, -2, 3, 0])
    a = next(
        list(a) for a in itertools.product(range(8), repeat=2) if oracles.is_characteristic(tensor, a)
    )
    good = basis_bhat(tensor, a, 24)
    assert oracles.check_bhat(tensor, a, good, 24) == []
    assert grid_defect_free(tensor, a, good, 24)
    for i in range(2):
        bad = list(good)
        bad[i] += 1
        assert oracles.check_bhat(tensor, a, bad, 24)
    assert oracles.check_bhat(tensor, a, None, 24)


def sweep_result(tensor, pick):
    """A result shaped like sweep.py's, filled in from the oracles."""
    rank = len(tensor)
    flags = {str(list(p)): oracles.is_characteristic(tensor, p) for p in itertools.product((0, 1), repeat=rank)}
    bhat24 = {
        str(list(a)): basis_bhat(tensor, list(a), 24)
        for a in itertools.product(range(8), repeat=rank)
        if flags[str([v % 2 for v in a])]
    }
    result = {
        "tensor": tensor,
        "characteristic": flags,
        "bhat24": bhat24,
        "bhat3": basis_bhat(tensor, [0] * rank, 3),
        "refinement": {"passed": True, "samples": 200, "witness": None},
    }
    if bhat24:
        key = sorted(bhat24)[pick % len(bhat24)]
        result["relations_a"] = [int(v) for v in key.strip("[]").split(",")]
        result["relations"] = relations(bhat24[key])
    return result


def test_sweep_form():
    tensor = rank2([1, -2, 3, 0])
    good = sweep_result(tensor, 7)
    assert oracles.check_sweep_form(good, tensor, 7) == []

    flag = copy.deepcopy(good)
    flag["characteristic"]["[1, 1]"] = not flag["characteristic"]["[1, 1]"]
    dropped = copy.deepcopy(good)
    dropped["bhat24"].pop(sorted(dropped["bhat24"])[0])
    off24 = copy.deepcopy(good)
    first = sorted(off24["bhat24"])[0]
    off24["bhat24"][first] = [off24["bhat24"][first][0] + 1, off24["bhat24"][first][1]]
    off3 = copy.deepcopy(good)
    off3["bhat3"] = [(off3["bhat3"][0] + 1) % 3, off3["bhat3"][1]]
    refinement = copy.deepcopy(good)
    refinement["refinement"] = {"passed": False, "samples": 200, "witness": [[1, 0], [0, 1], [1, 1]]}
    relation = copy.deepcopy(good)
    relation["relations"]["refine24"]["passed"] = False
    for result in (flag, dropped, off24, off3, refinement, relation):
        assert oracles.check_sweep_form(result, tensor, 7)
