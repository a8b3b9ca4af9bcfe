"""Every name a hybridnoc module imports is used in that module.

Deleting code tends to leave imports behind; this walks each module's
syntax tree instead of relying on a linter the project does not ship.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybridnoc"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
