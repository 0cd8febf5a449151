"""Every module-level import in the package is used by its module.

A small stand-in for a linter: parse each source file with ``ast`` and
compare the names its top-level imports bind with the names it reads.
``__init__.py`` imports are re-exports and exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "percospec")
                 .glob("*.py"))


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
