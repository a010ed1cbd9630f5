"""No module of the package imports a name it never uses, no module-level
private name goes unreferenced, and no public name is used only by tests.

Static checks on the syntax tree, standing in for a linter: an imported
name counts as used when it appears anywhere else in the module as a name
or as the root of an attribute chain. ``__init__.py`` is exempt, since its
imports are the package's re-exports. A module-level name with one leading
underscore counts as referenced when it is read, taken as an attribute or
imported anywhere in the package outside its own definition. A public
module-level name counts as used when the same holds in the package
(``__init__.py`` aside), the benchmark (``perfbench/``) or the demos.

The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by module and name, so every name it lists must still exist in
``ctfidf``; the file is loaded from its path and nothing is installed.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import ctfidf

MODULES = sorted(p for p in Path(ctfidf.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
REPO = Path(__file__).parent.parent


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


def definitions(tree: ast.Module, private: bool = True):
    """(name, defining statement) of each module-level ``_name``, or with
    ``private=False`` of each module-level public name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__") and name.startswith("_") == private:
                yield name, stmt


def references(node: ast.AST) -> list[str]:
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name)
    return out


def unreferenced(sources: dict[str, str], private: bool = True,
                 users: tuple[str, ...] = ()) -> list[str]:
    """module.name of each definition in ``sources`` that no source or
    user references outside the definition itself."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    refs = [r for tree in [*trees.values(), *map(ast.parse, users)]
            for r in references(tree)]
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name, stmt in definitions(tree, private)
                  if refs.count(name) == references(stmt).count(name))


def test_checker_finds_unreferenced_privates():
    sources = {
        "a": ("_LIMIT = 3\n_dead: int = 1\n"
              "def _rec(n):\n    return _rec(n - 1) if n else _LIMIT\n"
              "def _helper():\n    pass\n"
              "class _Box:\n    pass\n"
              "def run():\n    return run\nSIZE = 2\n"),
        "b": "import a\nfrom a import _helper\n_helper(a._Box)\n",
    }
    assert unreferenced(sources) == ["a._dead", "a._rec"]
    users = ("import a\nprint(a.SIZE)\n",)
    assert unreferenced(sources, private=False) == ["a.SIZE", "a.run"]
    assert unreferenced(sources, private=False, users=users) == ["a.run"]


def test_every_private_name_is_referenced():
    package = Path(ctfidf.__file__).parent.glob("*.py")
    assert unreferenced(
        {p.stem: p.read_text(encoding="utf-8") for p in package}) == []


def test_every_public_name_is_used_outside_the_tests():
    users = [REPO / d for d in ("perfbench", "demos")]
    assert unreferenced(
        {p.stem: p.read_text(encoding="utf-8") for p in MODULES},
        private=False,
        users=tuple(p.read_text(encoding="utf-8")
                    for d in users for p in sorted(d.glob("*.py")))) == []


def test_benchmark_tracer_targets_exist():
    path = REPO / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = ([(module, attr) for module, attr, _ in tracing._WRAPPED]
               + list(tracing._COUNTED))
    assert len(targets) > 2
    for module, attr in targets:
        assert module.__name__.startswith("ctfidf.")
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
