"""Every name a dilutetl module imports is read somewhere in that module."""

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
