"""The package's source holds no unused code: every import is read by its
module (or exported through `__all__`), every module-level private
function, class or constant is referenced somewhere in the package, and
every module-level public function or class is read by the package (its
`__init__` re-exports count) or by `perfbench/`, a caller.  No module
imports `scipy.integrate`: numerical quadrature lives in the tests.  No
module imports `csv`: every CSV file is hand-joined in one dialect
(`harness._quoted`)."""

import ast
from pathlib import Path

import pytest

import recencysim

SOURCES = sorted(Path(recencysim.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
CALLERS = [ast.parse(path.read_text(), filename=str(path)) for path in
           sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))]


def imported_modules(tree):
    """The dotted names of the modules a module's imports load, at any
    depth (a function's lazy import too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def exported(tree):
    """The names in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def imported(tree):
    """The names a module's imports bind, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def referenced(tree):
    """Every name a module reads, takes as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


@pytest.mark.parametrize("name", TREES)
def test_every_import_is_used(name):
    tree = TREES[name]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported(tree) if n not in read | exported(tree)] == []


@pytest.mark.parametrize("name", TREES)
def test_no_module_imports_scipy_integrate(name):
    # the closed forms integrate everything; quadrature is the tests' oracle
    # (tests/quadrature_oracle.py)
    assert [m for m in imported_modules(TREES[name])
            if m == "scipy.integrate" or m.startswith("scipy.integrate.")] == []


@pytest.mark.parametrize("name", TREES)
def test_no_module_imports_csv(name):
    # every CSV file is written one way, csv.writer's bytes joined by hand;
    # csv.writer stays the tests' oracle
    assert [m for m in imported_modules(TREES[name])
            if m == "csv" or m.startswith("csv.")] == []


def defined(node):
    """The names a module-level statement defines: a function's or class's,
    or those an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_private_definition_is_referenced():
    used = {n for tree in TREES.values() for n in referenced(tree)}
    unused = [
        (name, defined_name)
        for name, tree in TREES.items()
        for node in tree.body
        for defined_name in defined(node)
        if defined_name.startswith("_") and not defined_name.startswith("__")
        and defined_name not in used
    ]
    assert unused == []


def test_every_public_function_and_class_is_read():
    read = {n for tree in [*TREES.values(), *CALLERS] for n in referenced(tree)}
    unread = [
        (name, node.name)
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    ]
    assert unread == []
