"""No package module but ``core.py`` reads an emission's ``.data``. An
emission may hold float32 values; ``core.py`` reads them in float64 and
every other module indexes the matrix (``emission[index]``), which gives
float64, so no reader computes in float32 unseen. The check cannot tell
an emission from another object, so it flags every ``.data`` attribute."""

import ast
from pathlib import Path

import pytest

import seqdecode

MODULES = sorted(p for p in Path(seqdecode.__file__).parent.glob("*.py") if p.name != "core.py")


def data_reads(source: str):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "data"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_emission_data(path):
    assert data_reads(path.read_text(encoding="utf-8")) == []


def test_checker_sees_a_data_read():
    source = ("def f(emission, data):\n    x = emission[:, 0]\n"
              "    return x + emission.data[0, 0] + g(data=data)\n"
              "note = 'emission.data'\n")
    assert data_reads(source) == [3]
