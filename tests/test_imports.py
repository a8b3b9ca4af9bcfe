"""Every name a hybridnoc module imports is used in that module, and the
engine imports nothing from the layers above it.

Deleting code tends to leave imports behind; this walks each module's
syntax tree instead of relying on a linter the project does not ship.
"""

import ast
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
