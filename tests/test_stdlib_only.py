"""The package needs nothing beyond the Python standard library: every
import in `src/eigensplit` is package-relative, `__future__`, or a
standard-library module."""

import ast
import os
import sys

import pytest

from conftest import SRC

PACKAGE = os.path.join(SRC, "eigensplit")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_has_modules():
    assert "__init__.py" in MODULES and "series.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_stdlib_or_relative(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as f:
        tree = ast.parse(f.read(), module)
    outside = [
        name for name in _absolute_imports(tree)
        if name != "__future__"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, f"{module} imports {outside}"
