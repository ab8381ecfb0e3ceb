"""The package depends on numpy and the standard library only, and its
sources parse with the grammar of the oldest Python it declares.

scipy may be installed alongside, and mpmath and hypothesis serve the tests,
so an import of any of them from the package would pass everywhere they
happen to be present and fail where the package is installed on its own.
Between its own modules the package imports public names only: a name with
one leading underscore belongs to the module that defines it.
"""

import ast
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
