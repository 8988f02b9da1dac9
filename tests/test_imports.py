"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree:
an import left behind after its last use (a deleted AST node, say) fails
here. ``__init__.py`` is skipped because it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import cqpkit

MODULES = sorted(p for p in Path(cqpkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import json\nfrom .syntax import Nil, Var\n\nprint(Nil)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: Var"]
