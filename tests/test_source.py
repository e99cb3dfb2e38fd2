import ast
import subprocess
import sys
from pathlib import Path

import seritree

SOURCE = Path(seritree.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips asserts; invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    # no linter runs here; __init__.py imports names to re-export them
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_import_leaves_scipy_stats_out():
    # importing any of scipy costs every command a third of a second or more;
    # only the tests load it (`selftest` runs on numpy alone)
    code = "import sys, seritree, seritree.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_selftest_loads_no_scipy(selftest_run):
    # scipy is a test dependency only; `selftest` must pass on numpy alone
    code, _, scipy_modules = selftest_run
    assert (code, scipy_modules) == (0, "[]")


# public definitions that the tests check the package's faster forms against
UNCALLED_EXPORTS = {
    "zeta_hat_cumulant": "the closed-form cumulants that `mc_zeta_hat` is tested against",
}


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public top-level functions and classes of a module, and the public methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    return names


def _referenced(trees: list[ast.Module]) -> set[str]:
    """Every name, attribute and imported name the modules use; a definition is no use of its name."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_export_has_a_caller():
    # code that only the tests call belongs in tests/oracles.py, not the package:
    # every export, public function, class and method needs a caller
    init = SOURCE / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = [ast.parse(path.read_text()) for path in SOURCE.glob("*.py") if path != init]
    defined = set().union(*map(_public_definitions, modules))
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    referenced = _referenced([*modules, ast.parse(workloads.read_text())])
    uncalled = sorted((exported | defined) - referenced - set(UNCALLED_EXPORTS))
    assert not uncalled, f"public, but called by no command, module or benchmark: {uncalled}"
    assert set(UNCALLED_EXPORTS) <= exported
    stale = sorted(set(UNCALLED_EXPORTS) & referenced)
    assert not stale, f"exempt as uncalled, but called: {stale}"


def _private_definitions(tree: ast.Module) -> set[str]:
    """Single-underscore top-level functions and classes of a module, and such methods of its classes."""
    nodes = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    nodes += [
        item for node in nodes if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, ast.FunctionDef)
    ]
    return {node.name for node in nodes if node.name.startswith("_") and not node.name.startswith("__")}


def test_every_private_definition_has_a_caller():
    # a helper that only the tests call belongs in tests/oracles.py, as a
    # public one does
    modules = [ast.parse(path.read_text()) for path in SOURCE.glob("*.py")]
    uncalled = sorted(set().union(*map(_private_definitions, modules)) - _referenced(modules))
    assert not uncalled, f"private, but called by nothing in the package: {uncalled}"
