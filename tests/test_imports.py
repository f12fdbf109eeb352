"""Every name a module imports is used in that module, for the package's
modules and for ``tests/*.py`` and ``scripts/*.py``; and every top-level
private name of the package is used somewhere in the package outside its
own definition.

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


SRC = sorted(Path(morsetwist.__file__).parent.glob("*.py"))
SRC_TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in SRC}


def private_definitions(tree):
    """(name, defining statement) for every top-level private function,
    class or constant; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(tree, name):
    """Every use of ``name`` as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name) or \
                (isinstance(node, ast.Attribute) and node.attr == name):
            yield node


@pytest.mark.parametrize("path", SRC, ids=module_id)
def test_private_names_are_used_in_src(path):
    # a private helper that only the tests call belongs in the tests
    unused = []
    for name, definition in private_definitions(SRC_TREES[path]):
        own = {id(n) for n in ast.walk(definition)}
        if not any(id(n) not in own for tree in SRC_TREES.values()
                   for n in references(tree, name)):
            unused.append(f"{module_id(path)}:{definition.lineno}: {name}")
    assert not unused, "private name never used in src/:\n" + "\n".join(unused)
