"""Every name a module imports is used in that module, for the package's
modules and for ``tests/*.py`` and ``scripts/*.py``.

The package's ``__init__.py`` is skipped (its imports are the public
re-exports), and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import morsetwist

ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted(p for p in Path(morsetwist.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")
           + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py")))


def module_id(path):
    """The file name for a package module, else its directory and name."""
    if path.parent.name == "morsetwist":
        return path.name
    return f"{path.parent.name}/{path.name}"


def imported_names(tree):
    """(bound name, line) for every import statement, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{module_id(path)}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
