"""No package module uses an ``assert`` statement. ``python -O`` strips
asserts, so a runtime contract written as one silently stops being checked;
contracts raise instead."""

import ast
from pathlib import Path

import pytest

import seqdecode

MODULES = sorted(Path(seqdecode.__file__).parent.glob("*.py"))


def assert_lines(source: str):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_assert():
    source = ("def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n"
              "assert_ok = 'assert'\n")
    assert assert_lines(source) == [3]
