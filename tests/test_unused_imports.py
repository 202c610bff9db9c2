"""Every name a package module imports is used in it. No linter ships with
the toolchain, so this catches imports that deletions leave behind.
``__init__.py`` is exempt: it imports names to re-export them."""

import ast
from pathlib import Path

import pytest

import seqdecode

MODULES = sorted(p for p in Path(seqdecode.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_unused_import():
    source = ("import json\nimport numpy as np\nfrom typing import Any, Dict\n"
              "x: Dict = np.zeros(1)\n")
    assert unused_imports(source) == [(1, "json"), (3, "Any")]
