"""Every module-level import in the package and its tests is used by its
module, and every top-level function and class is used by the package.

A small stand-in for a linter: parse each source file with ``ast`` and
compare the names its top-level imports bind with the names it reads.
``__init__.py`` imports are re-exports and exempt.  A top-level function or
class, public or private, must be read somewhere in the package (as a name
or an attribute); being named in an ``__all__`` or read only by the tests
does not count, since code that no run reads is what this check is for.
``UNREAD_ALLOWED`` lists the exceptions, each with its reason.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "percospec")
                 .glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

# names no package module reads, kept on purpose
UNREAD_ALLOWED = {
    # the counting entry point; counting above the dense cap is to come in here
    ("spectra.py", "count_below"),
    # the principal submatrix: the tests' reference for the ids compression,
    # and a span that perfbench/tracer.py's TRACED wraps by name
    ("operators.py", "restrict"),
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_detects_leftovers():
    source = ("from collections import deque\nimport numpy as np\n"
              "from .cayley import FiniteSubgraph, GroupSpec\n"
              "def f(g: GroupSpec):\n    return np.zeros(1)\n")
    assert unused_imports(source) == [(1, "deque"), (3, "FiniteSubgraph")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_names(sources: dict) -> list:
    """(module, name) of each top-level function or class of the
    ``sources`` (module name -> source text) that none of them reads; an
    ``__all__`` entry or an import is not a read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in read)


def test_unread_public_names_detects_leftovers():
    sources = {"a.py": "def called():\n    return _helper()\ndef attribute():\n"
                       "    pass\ndef unread():\n    pass\ndef _helper():\n    pass\n"
                       "def _leftover():\n    pass\nclass Exported:\n    pass\n",
               "b.py": "from . import a\nfrom .a import called, Exported\n"
                       "__all__ = ['Exported']\ncalled(a.attribute)\n"}
    # exported and imported, or private and left over, but read by no module
    assert unread_names(sources) == [("a.py", "Exported"), ("a.py", "_leftover"),
                                     ("a.py", "unread")]


def test_every_public_name_is_read():
    unread = unread_names({p.name: p.read_text() for p in SOURCES})
    assert sorted(set(unread) - UNREAD_ALLOWED) == []
    # an allowance whose name is read or gone is stale
    assert sorted(UNREAD_ALLOWED - set(unread)) == []
