"""Every name a hornlab module imports is used in that module, every
module-level function, class or assigned name is read somewhere in the
package or exported, and the package exports exactly what its __init__
imports.  One more check keeps the conversion of rationals to integers in
semiring.over_common_denominator alone, another keeps the Horn cone on
one exact route (no LP solver in the package), a third keeps the one
float error analysis in hive's filter, a fourth keeps Hermitian
spectra on one route (no Jacobi eigensolver in the package), a fifth
keeps the two-sample KS statistic on one route (no searchsorted call in
the package), and a sixth keeps Haar unitaries on one route (no qr call in
the package).

No linter ships with the project, so these stdlib-ast checks keep unused
imports, dead definitions and stale exports out.  The package __init__ is
exempt from the first: its imports are re-exports.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import hornlab

SRC = Path(__file__).resolve().parent.parent / "src" / "hornlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_check_flags_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "dumps")]


def _defined_names(tree):
    """The module-level functions and classes of tree, and the names its
    module-level assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _dead_definitions(trees, exported):
    """(module, name) of every module-level function, class or assigned
    name that no module reads and the package does not export."""
    used = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((module, name) for module, tree in trees.items()
                  for name in _defined_names(tree) if name not in used)


def test_every_definition_is_used_or_exported():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert _dead_definitions(trees, hornlab.__all__) == []


def test_check_flags_a_dead_definition():
    trees = {"a": ast.parse("def f():\n    return g()\ndef g(): pass\n"
                            "def h(): pass\nclass K: pass\n"
                            "_CACHE = {}\nLIMIT = 3\n"),
             "b": ast.parse("import a\nclass C: pass\na.K()\n"
                            "print(a.LIMIT)\n")}
    assert _dead_definitions(trees, ["C"]) \
        == [("a", "_CACHE"), ("a", "f"), ("a", "h")]


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
                for alias in node.names]
    assert sorted(hornlab.__all__) == sorted(imported)
    missing = [name for name in hornlab.__all__ if not hasattr(hornlab, name)]
    assert missing == []


def test_only_the_common_denominator_helper_reads_integer_ratios():
    # rationals become integers in one place: semiring.over_common_denominator
    tree = ast.parse((SRC / "semiring.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "over_common_denominator")
    inside = range(helper.lineno, helper.end_lineno + 1)
    found = [(p.name, line) for p in sorted(SRC.glob("*.py"))
             for line, text in enumerate(
                 p.read_text(encoding="utf-8").splitlines(), start=1)
             if "as_integer_ratio" in text
             and not (p.name == "semiring.py" and line in inside)]
    assert found == []


def test_only_the_float_filter_holds_error_bound_constants():
    # unit roundoff, the subnormal threshold and the overflow guard are
    # constants of hive's filter alone; every float result in the package
    # is certified through it
    found = [(p.name, line) for p in sorted(SRC.glob("*.py"))
             if p.name != "hive.py"
             for line, text in enumerate(
                 p.read_text(encoding="utf-8").splitlines(), start=1)
             if any(c in text for c in ("** -53", "** -1022", "** 1000"))]
    assert found == []


def test_no_module_defines_or_imports_the_lp():
    # the Horn cone has one exact route in the package, hive's elimination;
    # the LP feasible_point lives in tests/oracles.py as the independent one
    assert importlib.util.find_spec("hornlab.simplex") is None
    found = [(p.name, line) for p in sorted(SRC.glob("*.py"))
             for line, text in enumerate(
                 p.read_text(encoding="utf-8").splitlines(), start=1)
             if "feasible_point" in text]
    assert found == []


def test_no_module_defines_the_jacobi_eigensolver():
    # Hermitian spectra have one route in the package, LAPACK eigvalsh on
    # blocks (linalg.l_map_block); the two-sided Jacobi eigh, its rotation
    # and its norm live in tests/oracles.py as the independent one
    assert not hasattr(hornlab, "eigh")
    found = [(p.name, node.name) for p in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)
             and node.name in ("eigh", "_rotation", "frobenius")]
    assert found == []


def _calls(name):
    """(module, line) of every call in the package of a function or method
    named name."""
    return [(p.name, node.lineno) for p in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == name]


def test_check_flags_a_call():
    # l_map_block is called by name in linalg and measure
    assert {module for module, _ in _calls("l_map_block")} \
        == {"linalg.py", "measure.py"}


def test_no_module_calls_searchsorted():
    # the two-sample KS statistic has one route in the package, one stable
    # merge of the sorted projections (measure.ks_distance); the route
    # through two searchsorted calls lives in tests/oracles.py as the
    # independent one
    assert _calls("searchsorted") == []


def test_no_module_calls_qr():
    # Haar unitaries have one route in the package, Gram-Schmidt run twice
    # on column arrays (linalg._q_factor); the phase-fixed LAPACK QR lives
    # in tests/oracles.py as the independent one
    assert _calls("qr") == []
