"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import hilbfold

MODULES = sorted(p for p in Path(hilbfold.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import comb, gcd as g\n"
                          "print(comb, os.sep)\n") == ["g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
