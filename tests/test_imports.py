"""Every name a module of the package imports is used in that module.

``__init__.py`` is skipped (its imports are the public re-exports), and so
are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import morsetwist

MODULES = sorted(p for p in Path(morsetwist.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import statement, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
