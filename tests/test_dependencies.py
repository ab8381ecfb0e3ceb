"""The package depends on numpy and the standard library only, and its
sources parse with the grammar of the oldest Python it declares.

scipy may be installed alongside, and mpmath and hypothesis serve the tests,
so an import of any of them from the package would pass everywhere they
happen to be present and fail where the package is installed on its own.
Between its own modules the package imports public names only: a name with
one leading underscore belongs to the module that defines it. No module-level
list or tuple holds a function, so a tracer that rebinds every reference to a
function (benches/tracer.py) can reach them all. Every function or class a
module exports is used by the package itself, so no public name serves the
tests alone.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "enthier").glob("*.py"))


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_numpy_and_the_standard_library(source):
    modules = absolute_imports(ast.parse(source.read_text(), filename=str(source)))
    assert sorted({name for name in modules if name.split(".")[0] not in ALLOWED}) == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_package_parses_with_the_declared_minimum_python(source):
    # pyproject.toml declares requires-python >= 3.10 while the tests run on a
    # later version; a best-effort grammar check (it refuses except*, say)
    # that does not show the package runs on 3.10
    ast.parse(source.read_text(), filename=str(source), feature_version=(3, 10))


def private_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                dunder = alias.name.startswith("__") and alias.name.endswith("__")
                if alias.name.startswith("_") and not dunder:
                    yield f"{node.module or ''}.{alias.name}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_package_modules_import_no_private_name_from_each_other(source):
    assert sorted(private_imports(ast.parse(source.read_text(), filename=str(source)))) == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_module_level_sequence_holds_a_function(source):
    # a dict entry can be rebound in place; an entry of a list or tuple cannot
    module = importlib.import_module("enthier" if source.stem == "__init__" else f"enthier.{source.stem}")
    held = [
        f"{key}: {inner.__qualname__}"
        for key, value in vars(module).items()
        if isinstance(value, (list, tuple))
        for inner in value
        if inspect.isfunction(inner)
    ]
    assert held == []


def module_level_definitions(tree):
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def uses(tree):
    """(name, owner) for each name a module reads, as a bare name or as an
    attribute; owner is the module-level function or class the read sits in,
    or None. Definitions, string entries of ``__all__`` and imports read no
    name, so they are not uses."""
    for statement in tree.body:
        owner = statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_public_function_and_class_serves_the_package():
    # A function or class a module lists in __all__ is read somewhere in the
    # package other than in its own body, and not only from inside public
    # definitions that fail this test themselves: it serves a command, or
    # code a command runs. One only the tests call belongs with the tests
    # (tests/helpers.py).
    trees = {source.stem: ast.parse(source.read_text(), filename=str(source)) for source in SOURCES}
    reads = [(module, owner, name) for module, tree in trees.items() for name, owner in uses(tree)]
    public = {
        (module, name)
        for module, tree in trees.items()
        for name in module_level_definitions(tree) & exported_names(tree)
    }
    unused = set()
    while True:
        live = {name for module, owner, name in reads if owner != name and (module, owner) not in unused}
        found = {(module, name) for module, name in public if name not in live}
        if found == unused:
            break
        unused = found
    assert sorted(f"{module}.{name}" for module, name in unused) == []
