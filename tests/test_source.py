"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import charmod

SRC = Path(charmod.__file__).parent
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
