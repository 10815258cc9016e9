"""Standing mutants: each edit of one constant or operator in ``src/`` must fail the
registry ids listed with it.

A mutant replaces text that occurs exactly once in its file, in a temp copy
of ``src/``, and runs ``run_registry(order=2)`` on that copy in a fresh
process.  A refactor that moves the text fails here loudly, and the entry is
updated with it.  A traceback in the child is a failure of the harness, not
a kill: no mutant may make an id raise.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = (
    "import json\n"
    "import charmod.anomaly as anomaly\n"
    "failed = [r.id for r in anomaly.run_registry(order=2) if not r.passed]\n"
    "print(json.dumps({'module': anomaly.__file__, 'failed': failed}))\n"
)

#: the ids that read each base's cubic form L Q
SPINC_FORM_IDS = ("spinc_main", "spinc_new", "deg8_spinc_q", "deg8_spinc_r", "differ1", "differ2")
ORIENT_FORM_IDS = ("o1", "o2", "deg8_orient_q", "deg8_orient_r")
#: the ids that read the twisted classes' multipliers, the degree-8
#: displays and the six main identities
FACT_IDS = ("fact_spinc_q", "fact_spinc_r", "fact_orient_q", "fact_orient_r")
DEG8_IDS = ("deg8_spinc_q", "deg8_spinc_r", "deg8_orient_q", "deg8_orient_r")
THEOREM_IDS = ("wfh_main", "spin_new", "spinc_main", "spinc_new", "o1", "o2")

#: (label, file under src/charmod, old text, new text, ids that must fail).
#: The K_0 and p entries are seen by the residue ids as well as by the
#: form ids: pc_theorem and mod2_orientable read p and lam from the same
#: `_P_CLASSES` and `_BASES` entries as the cubic forms.
MUTANTS = [
    (
        "spinc-p-39c4-to-38c4",
        "anomaly.py",
        "+ 39 * c ** 4) / 8",
        "+ 38 * c ** 4) / 8",
        SPINC_FORM_IDS + ("pc_theorem",),
    ),
    (
        "spinc-K0-c2-minus3-to-minus2",
        "anomaly.py",
        '"spinc": ((1, -3),',
        '"spinc": ((1, -2),',
        SPINC_FORM_IDS + ("fact_spinc_q", "fact_spinc_r", "pc_theorem"),
    ),
    (
        "orient-p-4p1sq-to-3p1sq",
        "anomaly.py",
        "4 * p1 * p1 - 7 * p2",
        "3 * p1 * p1 - 7 * p2",
        ORIENT_FORM_IDS + ("mod2_orientable",),
    ),
    (
        "orient-K0-p1-minus2-to-minus3",
        "anomaly.py",
        '"orient": ((-2, 0),',
        '"orient": ((-3, 0),',
        ORIENT_FORM_IDS + ("fact_orient_q", "fact_orient_r", "mod2_orientable"),
    ),
    (
        # p~ is then integral but mentions c, which has no orientable residue
        "orient-K0-c2-0-to-2",
        "anomaly.py",
        '"orient": ((-2, 0),',
        '"orient": ((-2, 2),',
        ORIENT_FORM_IDS + ("fact_orient_q", "fact_orient_r", "mod2_orientable"),
    ),
    (
        "copy-prefactor-E2x-over-12-to-over-6",
        "anomaly.py",
        'ring.gen("x") * Fraction(1, 12)',
        'ring.gen("x") * Fraction(1, 6)',
        FACT_IDS,
    ),
    (
        "e8-factor-sigma3-to-sigma1",
        "thetamod.py",
        "_sigma(3, n)",
        "_sigma(1, n)",
        FACT_IDS,
    ),
    (
        # the weight-10 basis: the fact_* ids with one E8 copy
        "e10-front-minus264-to-minus265",
        "thetamod.py",
        "10: -264",
        "10: -265",
        ("fact_spinc_r", "fact_orient_r"),
    ),
    (
        # the weight-14 basis: the fact_* ids with two E8 copies
        "e14-front-minus24-to-minus23",
        "thetamod.py",
        "14: -24}",
        "14: -23}",
        ("fact_spinc_q", "fact_orient_q"),
    ),
    (
        # R(x) is V's root part, so every id that reads V or the E8 factor
        "e8-root-6x2-to-7x2",
        "charring.py",
        "+ 6 * square",
        "+ 7 * square",
        THEOREM_IDS + FACT_IDS + DEG8_IDS,
    ),
    (
        "exponent-2x-per-copy-to-3x",
        "anomaly.py",
        '2 * copies * g["x"]',
        '3 * copies * g["x"]',
        FACT_IDS + DEG8_IDS,
    ),
    (
        # B^2 becomes 2 B: the classes with one copy are untouched
        "bracket-power-to-scale",
        "anomaly.py",
        "** copies",
        ".scale(copies)",
        ("fact_spinc_q", "fact_orient_q", "sqrt_relation"),
    ),
    (
        "index-rank-504-to-505",
        "anomaly.py",
        "(504 - 248 * k)",
        "(505 - 248 * k)",
        THEOREM_IDS + DEG8_IDS,
    ),
    (
        "q-form-minus-4x2-to-minus-3x2",
        "anomaly.py",
        "- 4 * x * x",
        "- 3 * x * x",
        THEOREM_IDS + DEG8_IDS + ("differ1", "differ2"),
    ),
    (
        "b1-minus-3xi-t-to-minus-2xi-t",
        "anomaly.py",
        "T - 12 - 3 * xi_t",
        "T - 12 - 2 * xi_t",
        ("spinc_main", "spinc_new", "deg8_spinc_q", "deg8_spinc_r", "b1_check"),
    ),
    (
        # Theta2 enters the spin^c and orientable Witten series and B1, D1
        "adams-theta2-sign-to-plus",
        "charring.py",
        "_THETA2 = (True, -1, True)",
        "_THETA2 = (True, 1, True)",
        FACT_IDS + ("b1_check", "d1_check"),
    ),
    (
        "spin-w-1-24-to-1-12",
        "anomaly.py",
        '"Ahat", Fraction(1, 24), Fraction(1, 2)',
        '"Ahat", Fraction(1, 12), Fraction(1, 2)',
        ("wfh_main", "spin_new"),
    ),
    (
        "spin-p-over-8-to-over-4",
        "anomaly.py",
        "(4 * p2 - p1 * p1) / 8",
        "(4 * p2 - p1 * p1) / 4",
        ("wfh_main", "spin_new", "differ1", "differ2"),
    ),
]


def run_copy(tmp_path, name=None, old=None, new=None):
    """The ids that fail on a copy of ``src/`` with ``old`` replaced by
    ``new`` in ``name``, or on an unchanged copy when ``name`` is None."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if name is not None:
        path = copy / "charmod" / name
        text = path.read_text()
        assert text.count(old) == 1, "%r must occur exactly once in %s" % (old, name)
        path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, timeout=120
    )
    if result.returncode != 0:
        pytest.fail("harness failure, not a kill:\n%s" % result.stderr)
    payload = json.loads(result.stdout)
    assert Path(payload["module"]).is_relative_to(copy)
    return payload["failed"]


def test_unmutated_copy_passes_every_id(tmp_path):
    # the control: the harness itself fails no id
    assert run_copy(tmp_path) == []


@pytest.mark.parametrize(
    "name, old, new, must_fail", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS]
)
def test_mutant_fails_its_ids(tmp_path, name, old, new, must_fail):
    failed = run_copy(tmp_path, name, old, new)
    assert sorted(set(must_fail) - set(failed)) == []
