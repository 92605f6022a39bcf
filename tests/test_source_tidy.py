"""The package's source holds no unused code: every import is read by its
module (or exported through `__all__`), every module-level private
function, class or constant is referenced somewhere in the package, and
every module-level public function or class is read by the package (its
`__init__` re-exports count) or by `perfbench/`, a caller.  No module
imports `scipy.integrate`: numerical quadrature lives in the tests.  No
module imports `csv`: every CSV file is hand-joined in one dialect
(`harness._quoted`).

`code_lines` counts a module's code lines, the measure of the package's
size; `PYTHONPATH=src python tests/test_source_tidy.py` prints each
module's count and the total."""

import ast
import io
import tokenize
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


#: tokens that hold no code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The lines of one module's `source` that hold code: each line a token
    other than a comment spans (every line of a multi-line statement), less
    the lines of each module, class and function docstring.  A blank or
    comment line holds no such token."""
    docstrings = set()
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, kinds) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_counts_only_code():
    source = '''"""A module docstring,
over two lines."""

import os  # a comment after code


class A:
    """A class docstring."""

    # a comment line
    x = (1,
         2)

    def f(self):
        """A function
        docstring."""
        s = """a string
        that is no docstring"""
        return os.sep + s
'''
    # import; class; both lines of x; def; both lines of s; return
    assert code_lines(source) == 8


if __name__ == "__main__":
    counts = {path.name: code_lines(path.read_text()) for path in SOURCES}
    for name, count in counts.items():
        print(f"{name:24}{count:6d}")
    print(f"{'total':24}{sum(counts.values()):6d}")
