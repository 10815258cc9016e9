"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import charmod

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SOURCE = str(Path(charmod.__file__).parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_demos_are_found():
    assert [path.name for path in DEMOS] == [
        "demo_cubic_lattice.py",
        "demo_e8_theta.py",
        "demo_verify_registry.py",
    ]
