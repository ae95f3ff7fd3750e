"""
Every name a dilutetl module imports is read somewhere in that module, and
no module relies on `assert` (python -O strips it).
"""

import ast
import glob
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "dilutetl")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(PACKAGE, "*.py"))),
                         ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                                  recursive=True)),
                         ids=lambda path: os.path.relpath(path, PACKAGE))
def test_no_assert_statements(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
