"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import charmod
from charmod.anomaly import REGISTRY_IDS

SRC = Path(charmod.__file__).parent
BENCHMARK_RUN = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads.  ``__init__`` is left out of
    the check: it imports names to re-export them."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_import_check_flags_an_unused_name():
    source = "import time\nfrom .charring import e8_ch, vb_adams\n\ne8_ch(time.time())\n"
    assert unused_imports(source) == ["vb_adams"]


def test_benchmark_lists_the_registry_ids_in_order():
    # the benchmark names one traced span per id and runs `--id all` only
    # when its tuple equals the registry's; a missing or renamed id would
    # leave its per-layer metric reading 0.0 without an error
    tree = ast.parse(BENCHMARK_RUN.read_text())
    listed = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "REGISTRY_IDS" for t in node.targets)
    ]
    assert listed == [REGISTRY_IDS]
