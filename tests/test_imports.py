"""Every name a module of the package imports is used in that module, and
so is every private name it defines at module level and every field of a
private dataclass it defines. Every keyword-only parameter of a function
of the package is passed by some call inside the package, so no switch
that only tests turn is left in it.

No linter ships with the project, so this walks each module's syntax tree:
an import or a ``_helper`` left behind after its last use (a deleted AST
node, say) fails here. ``__init__.py`` is skipped because it imports to
re-export.
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


def orphaned_private_names(source: str) -> list[str]:
    """Module-level ``_name`` definitions that the module never loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name == "dataclass"


def unread_private_fields(source: str) -> list[str]:
    """Fields of module-level ``_Name`` dataclasses whose name the module
    never reads as an attribute, of any object."""
    tree = ast.parse(source)
    fields = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name.startswith("_")):
            continue
        if not any(_is_dataclass(d) for d in node.decorator_list):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.append((stmt.lineno, node.name, stmt.target.id))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {cls}.{name}" for line, cls, name in fields if name not in read]


def unpassed_keywords(sources: list[str]) -> list[str]:
    """``function(keyword)`` for each keyword-only parameter of a function
    defined in ``sources`` that no call in them passes by that keyword. A
    call is matched to a function on the callee's name, ``f(...)`` or
    ``mod.f(...)``; one that spreads ``**mapping`` passes every keyword."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    passed: dict[str, set] = {}
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        passed.setdefault(name, set()).update(k.arg for k in node.keywords)
    return [
        f"{node.name}({arg.arg})"
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.kwonlyargs
        if not {arg.arg, None} & passed.get(node.name, set())
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphaned_private_name(path):
    assert orphaned_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_field(path):
    assert unread_private_fields(path.read_text()) == []


def test_every_keyword_only_parameter_is_passed():
    assert unpassed_keywords([p.read_text() for p in MODULES]) == []


def test_unused_import_is_caught():
    source = "import json\nfrom .syntax import Nil, Var\n\nprint(Nil)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: Var"]


def test_orphaned_private_name_is_caught():
    source = "_A = 1\n_B: int = 2\n\n\ndef _f():\n    return _A\n\n\nclass _C:\n    pass\n"
    assert orphaned_private_names(source) == ["line 2: _B", "line 5: _f", "line 9: _C"]


def test_unread_private_field_is_caught():
    source = (
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass _G:\n    kinds: list\n    sink: int\n\n\n"
        "@dataclass\nclass Public:\n    unread: int\n\n\n"
        "def _f(g):\n    return g.kinds, _G\n"
    )
    assert unread_private_fields(source) == ["line 7: _G.sink"]


def test_unpassed_keyword_is_caught():
    source = (
        "def f(x, *, fast=True, rng=None, deep=False):\n    return x\n\n\n"
        "def g(x, *, spread=0):\n    return x\n\n\n"
        "def h(opts):\n    return f(1, rng=None), m.f(2, deep=True), g(3, **opts)\n"
    )
    assert unpassed_keywords([source]) == ["f(fast)"]
