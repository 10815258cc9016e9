"""The benchmark's span tracer runs against the current package.

``benchmark/tracer.py`` wraps charmod functions looked up by name, so
renaming or deleting one of them breaks traced benchmark runs.  These runs
of its two modes, each in a fresh interpreter, make that a test failure
instead.  Nothing under ``benchmark/`` is written: every output goes to the
test's temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import charmod

TRACER = Path(__file__).parents[1] / "benchmark" / "tracer.py"
SOURCE = str(Path(charmod.__file__).parents[1])


def traced_span_names(tmp_path, *args):
    """Run the tracer with ``args`` and return the names of its spans."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no __pycache__ under benchmark/
    result = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    recorded = json.loads(spans.read_text())
    assert recorded
    return {span[0] for span in recorded}


def test_tracer_runs_the_cli(tmp_path):
    names = traced_span_names(tmp_path, "cli", "verify", "--id", "wfh_main", "--order", "1")
    assert {"cli.import", "cli.main.verify", "anomaly.verify_identity.wfh_main"} <= names


def test_tracer_runs_the_sweep(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"forms": [{"tensor": [[[1]]], "pick": 0}], "samples": 20, "seed": 1}))
    out = tmp_path / "results.json"
    names = traced_span_names(tmp_path, "sweep", str(job), str(out))
    assert {"cubiclattice.is_characteristic", "cubiclattice.solve_bhat"} <= names
    assert len(json.loads(out.read_text())) == 1
