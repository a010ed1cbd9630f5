"""No module of the package imports a name it never uses.

A static check on the syntax tree, standing in for a linter: an imported
name counts as used when it appears anywhere else in the module as a name
or as the root of an attribute chain. ``__init__.py`` is exempt, since its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import ctfidf

MODULES = sorted(p for p in Path(ctfidf.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport os.path\n"
              "from json import dumps, loads\n"
              "def f(x: np.ndarray):\n    return os.sep + dumps(x)\n")
    assert unused_imports(source) == ["loads"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
