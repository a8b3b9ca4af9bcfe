"""Every name a hybridnoc module imports is used in that module, the engine
imports nothing from the layers above it, cli.main catches only the error
classes that decide its exit codes, the package defines no other error
class, and one orchestrator helper builds every run record.

Deleting code tends to leave imports behind; this walks each module's
syntax tree instead of relying on a linter the project does not ship.
"""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybridnoc"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imports_from(tree: ast.AST, module: str):
    """Names imported by "from .module import ..." anywhere in tree."""
    return {
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for a in node.names
    }


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    # a dotted use such as os.path.join starts from the Name os
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_found():
    assert unused_imports(
        "import os\nimport os.path as osp\nfrom typing import Dict, Mapping\n"
        "def f(x: Dict) -> None:\n    return os.sep\n"
    ) == ["Mapping", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_simcore_imports_no_planning_or_generation():
    # sweeps, which generate traffic and plan circuits, live in orchestrator
    tree = ast.parse((PACKAGE / "simcore.py").read_text(encoding="utf-8"))
    assert imports_from(tree, "allocator") <= {"CircuitPlan"}
    assert not imports_from(tree, "traffic") & {"generate", "profile", "SyntheticSpec"}
    assert not imports_from(tree, "orchestrator")


def caught_by(function: ast.FunctionDef):
    """Names of the exception classes the function's except clauses catch."""
    names = []
    for node in ast.walk(function):
        if isinstance(node, ast.ExceptHandler):
            assert node.type is not None, "a bare except catches everything"
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names += [ast.unparse(kind) for kind in kinds]
    return names


def test_cli_main_maps_two_error_classes_to_exit_codes():
    # ConfigError exits 1, a data file fault exits 2; anything else must
    # surface as a traceback, so no wider clause may come back
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert sorted(caught_by(main)) == ["ConfigError", "OSError", "SystemExit", "TraceFormatError"]


def calls_to(tree: ast.AST, name: str) -> int:
    """How many name(...) calls tree holds."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == name for node in ast.walk(tree))


def test_one_helper_builds_every_run_record():
    # a record's energy comes from its stats alone, in one place
    tree = ast.parse((PACKAGE / "orchestrator.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_result")
    for name in ("RunResult", "account"):
        assert calls_to(tree, name) == calls_to(helper, name) == 1


def test_the_package_defines_three_error_classes():
    # ConfigError exits 1, TraceFormatError 2 and SimulationError is a
    # defect; a subclass would be a fourth name that no handler tells apart
    classes = {node.name: [ast.unparse(base) for base in node.bases]
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)}

    def is_error(name):
        kind = getattr(builtins, name, None)
        if isinstance(kind, type):
            return issubclass(kind, BaseException)
        return any(map(is_error, classes.get(name, ())))

    assert sorted(filter(is_error, classes)) == \
        ["ConfigError", "SimulationError", "TraceFormatError"]
