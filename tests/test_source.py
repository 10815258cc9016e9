"""Static checks on the package source."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import charmod
from charmod.anomaly import REGISTRY_IDS

SRC = Path(charmod.__file__).parent
BENCHMARK_RUN = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"
MODULES = sorted(path.name for path in SRC.glob("*.py"))

#: the package root's public names, by home layer
EXPORTS = {
    "exactmath": (
        "GRID GridError NotExponentiable NotInvertible QExpSeries RAT_RING "
        "RingMismatchError qs_exp qs_inv qs_log qs_mul"
    ),
    "charring": (
        "ArgumentError DegreeError DimError GradedPoly PolyRing SpecError "
        "calibrate_e8_roots ch_tangent default_ring e8_ch line_pair_ch "
        "multiplicative_class power_sums_from_pontryagin vb_adams vb_lambda2_sym2 "
        "witten_character witten_expand"
    ),
    "thetamod": (
        "NotProportional PrecisionError e8_character e8_lattice_theta e8_theta_sum "
        "eisenstein match_modular_basis numeric_transform_check phi theta_eighth_sum "
        "theta_log_ratio theta_zero_power8"
    ),
    "anomaly": (
        "CLASS_KINDS REGISTRY_IDS UnsupportedGenerator VerificationReport "
        "build_twisted_class boundary_ring mod2_reduce restrict_to_u run_registry "
        "verify_differ verify_identity"
    ),
    "cubiclattice": (
        "CubicFormSpec HypothesisWarning NoSolution TrilinearLattice "
        "check_cubic_relations is_characteristic load_lattice_json solve_bhat "
        "verify_refinement"
    ),
}


def test_package_root_re_exports_each_name_from_its_home_layer():
    homes = {name: layer for layer, names in EXPORTS.items() for name in names.split()}
    assert sorted(charmod.__all__) == sorted(homes)
    for name, layer in homes.items():
        home = importlib.import_module("charmod." + layer)
        assert getattr(charmod, name) is getattr(home, name), name
    # nothing is cached on the root, so a patched home layer shows through
    assert not set(homes) & set(vars(charmod))
    namespace = {}
    exec("from charmod import *", namespace)
    assert all(namespace[name] is getattr(charmod, name) for name in homes)
    with pytest.raises(AttributeError):
        charmod.no_such_name


def unused_imports(source):
    """Names a module imports but never reads."""
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


def functions_referencing(source, name):
    """Innermost functions whose bodies read ``name``, as a bare name or an
    attribute, sorted; "<module>" for a read outside every function.  An
    import of ``name`` is not a read."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_exp_combination_calls_qs_exp():
    # every series exponential goes through one builder
    found = {
        path.name: functions_referencing(path.read_text(), "qs_exp")
        for path in sorted(SRC.glob("*.py"))
    }
    assert {module: names for module, names in found.items() if names} == {
        "charring.py": ["exp_combination"]
    }


def test_qs_exp_check_flags_every_other_reader():
    source = (
        "from . import exactmath\n"
        "from .exactmath import qs_exp\n"
        "def exp_combination(s):\n    return qs_exp(s)\n"
        "def witten_character(s):\n"
        "    def inner():\n        return exactmath.qs_exp(s)\n"
        "    return inner()\n"
        "build = qs_exp\n"
    )
    assert functions_referencing(source, "qs_exp") == ["<module>", "exp_combination", "inner"]


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def unraised_exceptions(sources):
    """Exception classes the sources define but never raise or pass to
    ``warnings.warn``.  A class is an exception class when one of its bases
    is a builtin exception or another exception class of the sources."""
    trees = [ast.parse(source) for source in sources]
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    exceptions = set()
    while True:
        found = {
            name
            for name, names in bases.items()
            if any(base in exceptions or _is_builtin_exception(base) for base in names)
        }
        if found == exceptions:
            break
        exceptions = found
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name):
                    used.add(raised.id)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                used.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    return sorted(exceptions - used)


def test_every_exception_class_is_raised():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unraised_exceptions(sources) == []


def test_unraised_exception_check_flags_an_unraised_class():
    source = (
        "import warnings\n"
        "class BaseFault(ValueError):\n    pass\n"
        "class Raised(BaseFault):\n    pass\n"
        "class Warned(UserWarning):\n    pass\n"
        "class Unraised(BaseFault):\n    pass\n"
        "class Plain:\n    pass\n"
        "def f(x):\n"
        "    if x:\n        raise Raised('x')\n"
        "    warnings.warn('y', Warned)\n"
        "    raise BaseFault\n"
    )
    assert unraised_exceptions([source]) == ["Unraised"]


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
