"""Static checks on the package sources and the README's import block."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfermat

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qfermat").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _top_level_imports(tree):
    """(bound name, line) for each name a module-level import binds."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append(((alias.asname or alias.name).split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _top_level_bindings(tree):
    names = {name for name, _ in _top_level_imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = _parse(path)
    used = _referenced_names(tree) | set(_declared_all(tree))
    unused = ["%s (line %d)" % (name, line)
              for name, line in _top_level_imports(tree) if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = _parse(path)
    missing = sorted(set(_declared_all(tree)) - _top_level_bindings(tree))
    assert not missing, "%s lists undefined names in __all__: %s" % (path.name, missing)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads_of_other_modules(tree):
    """(line, text) of each read of an underscore name of another qfermat module."""
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qfermat"):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if _is_private(alias.name):
                    reads.append((node.lineno, "from %s import %s" % (source, alias.name)))
                elif node.module in (None, "qfermat"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("qfermat."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            reads.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
    return sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_of_other_modules(path):
    reads = _private_reads_of_other_modules(_parse(path))
    assert not reads, "%s reads private names of other qfermat modules: %s" % (
        path.name, ", ".join("%s (line %d)" % (text, line) for line, text in reads))


def test_admissibility_is_decided_in_qmatrix_alone():
    # one gate: every other module asks qmatrix.admissible_matrix
    for path in MODULES:
        if path.name != "qmatrix.py":
            assert "is_admissible" not in path.read_text(encoding="utf-8"), path.name


def _cycnum_reads(tree):
    """(line, text) of each CycNum(...) call and each isinstance(..., CycNum)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "CycNum":
                found.append((node.lineno, "CycNum(...)"))
            elif node.func.id == "isinstance" and len(node.args) == 2 and any(
                    isinstance(n, ast.Name) and n.id == "CycNum"
                    for n in ast.walk(node.args[1])):
                found.append((node.lineno, "isinstance(..., CycNum)"))
    return sorted(found)


def test_field_elements_are_read_in_cyclotomic_alone():
    # one rule: every other module reads a field-element argument through
    # cyclotomic.as_cyc and builds none from raw coordinates
    for path in MODULES:
        if path.name != "cyclotomic.py":
            found = _cycnum_reads(_parse(path))
            assert not found, "%s reads field elements itself: %s" % (
                path.name, ", ".join("%s (line %d)" % (text, line) for line, text in found))
    # and the walk sees the constructor calls and the type test that are there
    found = {text for _, text in _cycnum_reads(_parse(ROOT / "src" / "qfermat" / "cyclotomic.py"))}
    assert found == {"CycNum(...)", "isinstance(..., CycNum)"}


def test_no_test_that_monkeypatches_reads_the_fiber_memo():
    # conftest.fiber_facts keeps what the real fiber module computed for the
    # whole session, so a test that patches fiber must compute its own
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef):
                args = {arg.arg for arg in node.args.args}
                assert not {"monkeypatch", "fiber_facts"} <= args, (path.name, node.name)


def test_readme_library_imports_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from qfermat import \(([^)]*)\)", text)
    assert block, "README has no 'from qfermat import (...)' block"
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names
    package = importlib.import_module("qfermat")
    missing = [n for n in names if not hasattr(package, n)]
    assert not missing, "README imports names qfermat does not export: %s" % missing
    assert set(names) <= set(package.__all__)


# qfermat.__all__ when it was a list written out in __init__.py, less the
# PairingMatrix class that frobenius_pairing's exponent array replaced,
# less MultiIndex, CarryVector, enumerate_index_set, index_add and weight,
# which index positions and plain digit tuples replaced, less
# MonomialAlgebra, is_generic and the three group actions act_scale,
# act_permute and act_twist, now test oracles, less is_semisimple, which
# was radical_dim(F) == 0, and less enumerate_admissible, orbit and
# canonical_representative, which no command called
EXPORTED_BEFORE = [
    "__version__", "ToolkitError", "PreconditionError", "BudgetExceededError", "CycNum",
    "root_power", "weight_histogram", "QMatrix", "ClassificationReport", "is_admissible",
    "enumerate_generic", "canonical_generic_representative",
    "orbit_representatives", "classify", "StructureTable",
    "AssociativityReport", "CyCertificate", "build_table", "verify_associativity",
    "frobenius_pairing", "is_symmetric_pairing", "cy_certificate", "AlgElement",
    "normal_form", "multiply", "is_central", "graded_dimension", "FiberPoint",
    "FiberAlgebra", "specialize", "center_dim", "radical_dim", "RatPolynomial",
    "TwistMultiset", "algebra_twist_multiset", "hilbert_polynomial", "cohomology_dim",
    "sheaf_cohomology", "dt_polynomial_pair",
]


def _fresh(code):
    """stdout of code run in a new interpreter that imports qfermat from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
           "if m == 'numpy' or m.startswith('qfermat.'))))")


def test_package_modules_declare_disjoint_literal_names():
    # a name listed twice would resolve by module order alone
    owner = {}
    for module in qfermat._MODULES:
        tree = _parse(ROOT / "src" / "qfermat" / (module + ".py"))
        lists = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
        assert len(lists) == 1 and isinstance(lists[0], ast.List), module
        names = _declared_all(tree)
        assert names and all(isinstance(n, str) for n in names), module
        # the package refuses underscore names without importing anything
        assert not [n for n in names if n.startswith("_")], module
        for name in names:
            assert owner.setdefault(name, module) == module, (name, owner[name], module)
    assert len(EXPORTED_BEFORE) == 39 and set(EXPORTED_BEFORE) - {"__version__"} <= set(owner)


def test_package_names_resolve_in_a_fresh_process():
    code = ("import json, qfermat\n"
            "from qfermat import *\n"
            "print(json.dumps([qfermat.__all__, [n for n in qfermat.__all__ "
            "if globals().get(n) is not getattr(qfermat, n)], sorted(dir(qfermat))]))")
    names, unbound, listed = _fresh(code)
    assert unbound == [] and set(names) <= set(listed)
    assert set(EXPORTED_BEFORE) <= set(names) and len(names) == len(set(names))
    assert names[0] == "__version__"


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # nor does a probe for an underscore name the package does not define
    assert _fresh("import qfermat; " + _LOADED) == []
    for name in ("__wrapped__", "_repr_html_"):
        probe = "import qfermat; assert not hasattr(qfermat, %r); " % name
        assert _fresh(probe + _LOADED) == [], name


def test_structure_does_not_load_the_cyclotomic_field():
    # the table, its verification and its pairing are all arithmetic in Z/5
    loaded = _fresh("import qfermat.structure; " + _LOADED)
    assert "qfermat.structure" in loaded and "qfermat.cyclotomic" not in loaded


def test_submodules_outside_the_eight_resolve_on_first_access():
    # the package re-exports no name of linalg or cli, yet each is an
    # attribute at once, not only after some other access has imported it
    code = ("import json, qfermat\n"
            "print(json.dumps([qfermat.linalg.__name__, qfermat.cli.__name__]))")
    assert _fresh(code) == ["qfermat.linalg", "qfermat.cli"]


def test_benchmark_traced_names_resolve():
    # perfbench/worker.py wraps each (module, name) of _TRACED with getattr
    # when it runs with --trace, so deleting one of these functions would
    # make every traced worker raise AttributeError
    tree = _parse(ROOT / "perfbench" / "worker.py")
    traced = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "_TRACED" for t in node.targets)]
    assert len(traced) == 1 and traced[0]
    missing = [(module, name) for module, name in traced[0]
               if not hasattr(importlib.import_module("qfermat." + module), name)]
    assert not missing, "perfbench/worker.py traces names qfermat lacks: %s" % missing


def test_importing_the_cli_loads_every_package_module():
    # the traced benchmark (perfbench/worker.py) imports qfermat.cli and then
    # wraps the functions of the modules already loaded; a module the CLI
    # imported only inside a handler would record no spans
    loaded = _fresh("import qfermat.cli; " + _LOADED)
    assert {"qfermat." + m for m in qfermat._MODULES} <= set(loaded)


_FLOAT_DTYPES = {"float16", "float32", "float64", "floating"}


def _names_float(node):
    # the builtin float or a dtype string such as "float64", as a dtype
    return (isinstance(node, ast.Name) and node.id == "float") or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("float"))


def _float_dtypes(tree):
    """(line, text) of each numpy floating dtype a module names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _FLOAT_DTYPES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and _names_float(node.value):
            found.append((node.value.lineno, "dtype=float"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "astype" and node.args and _names_float(node.args[0])):
            found.append((node.lineno, "astype(float)"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_paths_are_integer_only(path):
    # no floating point where a theorem is decided; the builtin float of a
    # CLI option is not a numpy dtype
    found = _float_dtypes(_parse(path))
    assert not found, "%s uses numpy floating dtypes: %s" % (
        path.name, ", ".join("%s (line %d)" % (text, line) for line, text in found))


def _complex_evaluation(tree):
    """(line, text) of each cmath import and each __complex__ a module defines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "cmath"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmath":
            found.append((node.lineno, "from cmath import"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__complex__":
            found.append((node.lineno, "def __complex__"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_complex_float_evaluation(path):
    # Q(zeta_5) is computed on exact coordinates; no module evaluates a
    # scalar as a complex float
    found = _complex_evaluation(_parse(path))
    assert not found, "%s evaluates in complex floats: %s" % (
        path.name, ", ".join("%s (line %d)" % (text, line) for line, text in found))
