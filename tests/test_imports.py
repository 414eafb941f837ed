"""Every name a package module imports is used in that module, every import
is of the standard library, numpy or the package, and no module reads another
object's private attributes.

Parses the sources with ast only, so it runs without numpy.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toricshrink").glob("*.py"))


def unused_imports(tree):
    """(line, name) of each imported name that no expression in tree reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def foreign_imports(tree):
    """(line, module) of each import of neither the standard library, numpy nor
    the package: the test extra installs scipy and mpmath, the package needs
    only numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    allowed = sys.stdlib_module_names | {"numpy", "toricshrink"}
    return sorted((line, name) for line, name in found if name.split(".")[0] not in allowed)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_foreign_imports_are_found():
    tree = ast.parse("import os, scipy.linalg\nfrom mpmath import mp\nfrom . import ding\n"
                     "from numpy.linalg import det\nimport toricshrink.cli")
    assert foreign_imports(tree) == [(1, "scipy.linalg"), (2, "mpmath")]


def foreign_private_reads(tree):
    """(line, attribute) of each read of obj._name with obj other than self or cls.

    Dunder attributes are the language's own, not private.
    """
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_attribute_reads_from_outside(path):
    assert foreign_private_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_lattice_eliminates_over_the_integers_only():
    # diagonalize is the package's one elimination: lattice has no Fractions to reduce
    tree = ast.parse((SOURCES[0].parent / "lattice.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and "fractions" not in modules
