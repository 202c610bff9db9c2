"""Every module-level function or class of the package whose name starts
with ``_`` is referenced outside its own definition. A private helper has no
caller outside the package, so one that nothing references is dead code a
deletion left behind."""

import ast
from pathlib import Path

import seqdecode

PACKAGE = Path(seqdecode.__file__).parent


def referenced_names(node):
    """Names and attribute names read anywhere under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def dead_private_helpers(sources):
    """(module, name) of each private module-level function or class in
    ``sources`` (module name -> source) that no other top-level statement of
    any module references."""
    statements = [(module, node) for module, source in sorted(sources.items())
                  for node in ast.parse(source).body]
    uses = [referenced_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not any(node.name in names for j, names in enumerate(uses) if j != i)):
            dead.append((module, node.name))
    return sorted(dead)


def test_every_private_helper_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_helpers(sources) == []


def test_checker_sees_an_unreferenced_helper():
    sources = {
        "a": ("def _used():\n    return 1\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "class _Gone:\n    pass\n\n"
              "def _by_attribute():\n    pass\n\n"
              "def public():\n    return _used()\n"),
        "b": "import a\n\nVALUE = a._by_attribute()\n",
    }
    assert dead_private_helpers(sources) == [("a", "_Gone"), ("a", "_recursive")]
