"""Every name a package module imports is used in that module, so that a
deleted code path leaves no dead import behind."""

import ast
from pathlib import Path

import pytest

import schurkernels

MODULES = sorted(Path(schurkernels.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` that no other
    expression reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") \
        == ["math (line 1)", "path (line 2)"]
