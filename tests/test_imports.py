"""Every name a module imports is used in that module, for the package's
modules and for ``tests/*.py`` and ``scripts/*.py``; every top-level
private name of the package is used somewhere in the package outside its
own definition; every top-level public name is used so too, or by a
script, or is exported by the package's ``__init__.py``; and every
parameter with a default on a top-level function of the package is set by
some call in the package or its scripts.

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


def definitions(tree):
    """(name, defining statement) for every top-level function, class or
    constant but the dunder names."""
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
            if not name.startswith("__"):
                yield name, node


def references(tree, name):
    """Every use of ``name`` as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name) or \
                (isinstance(node, ast.Attribute) and node.attr == name):
            yield node


def unused_definitions(path, private, trees):
    """(name, line) for ``path``'s top-level names, private or public, that
    no statement of ``trees`` uses outside the name's own definition."""
    for name, definition in definitions(SRC_TREES[path]):
        if name.startswith("_") != private:
            continue
        own = {id(n) for n in ast.walk(definition)}
        if not any(id(n) not in own for tree in trees
                   for n in references(tree, name)):
            yield name, definition.lineno


@pytest.mark.parametrize("path", SRC, ids=module_id)
def test_private_names_are_used_in_src(path):
    # a private helper that only the tests call belongs in the tests
    unused = [f"{module_id(path)}:{line}: {name}" for name, line
              in unused_definitions(path, True, SRC_TREES.values())]
    assert not unused, "private name never used in src/:\n" + "\n".join(unused)


SCRIPT_TREES = [ast.parse(p.read_text(), filename=str(p))
                for p in sorted(ROOT.glob("scripts/*.py"))]
EXPORTS = {alias.asname or alias.name
           for node in SRC_TREES[Path(morsetwist.__file__)].body
           if isinstance(node, ast.ImportFrom) for alias in node.names}


@pytest.mark.parametrize("path", SRC, ids=module_id)
def test_public_names_are_used_or_exported(path):
    # public API that nothing calls, in the package or its scripts, and
    # that the package does not export is dead code
    trees = [*SRC_TREES.values(), *SCRIPT_TREES]
    unused = [f"{module_id(path)}:{line}: {name}" for name, line
              in unused_definitions(path, False, trees) if name not in EXPORTS]
    assert not unused, ("public name neither used in src/ or scripts/ nor "
                        "exported:\n" + "\n".join(unused))


def calls_by_name(trees):
    """Every call in ``trees``, keyed by the bare or attribute name of the
    function it calls."""
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, position, name):
    """True when ``call`` sets the parameter ``name`` at ``position`` (None
    for a keyword-only one), by keyword, by position, or through ``*``/``**``
    unpacking."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def defaulted_parameters(fn):
    """(position or None, name) of every parameter of ``fn`` with a default."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    first = len(positional) - len(a.defaults)
    yield from ((i, p.arg) for i, p in enumerate(positional) if i >= first)
    yield from ((None, p.arg) for p, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is not None)


@pytest.mark.parametrize("path", SRC, ids=module_id)
def test_optional_parameters_are_set_by_some_call(path):
    # a parameter whose default every call in the package and its scripts
    # keeps is a knob that nothing turns
    calls = calls_by_name([*SRC_TREES.values(), *SCRIPT_TREES])
    unset = [f"{module_id(path)}:{fn.lineno}: {fn.name}({name}=)"
             for fn in SRC_TREES[path].body
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for position, name in defaulted_parameters(fn)
             if not any(passes(c, position, name)
                        for c in calls.get(fn.name, []))]
    assert not unset, ("optional parameter that no call in src/ or scripts/ "
                       "sets:\n" + "\n".join(unset))
