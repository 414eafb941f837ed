"""Every name a package module imports is used in that module, every import
is of the standard library, numpy or the package, no module reads another
object's private attributes, and every public name has a reader outside the
tests.

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


def public_definitions(tree):
    """(label, name) of each public module-level function and class, and of
    each public method of a public class, labelled Class.method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def referenced_names(tree):
    """Every name that tree reads as a Name, an Attribute or an import alias.

    A definition's own name is none of these, so it does not read itself.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unread_public_names(definitions, readers):
    """Labels of the definitions that no reader tree references by name."""
    read = set().union(*(referenced_names(tree) for tree in readers))
    return sorted(label for tree in definitions
                  for label, name in public_definitions(tree) if name not in read)


def test_every_public_name_has_a_reader_outside_the_tests():
    # the readers are the package, the benchmark, the demos and the acceptance
    # gate; a name that only unit tests read is no part of the pipeline.
    # Blind to a name that numpy or a dataclass field also spells
    root = SOURCES[0].parents[2]
    readers = SOURCES + sorted((root / "perfbench").glob("*.py")) + sorted(
        (root / "demos").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    parse = [ast.parse(path.read_text(encoding="utf-8")) for path in readers]
    assert unread_public_names(parse[:len(SOURCES)], parse) == []


def test_unread_public_names_are_found():
    package = ast.parse("class A:\n    def used(self): pass\n    def unused(self): pass\n"
                        "    def _private(self): pass\n"
                        "def f(): return A().used()\ndef g(): pass\ndef _h(): pass\n")
    reader = ast.parse("from package import f\nimport package.g as gee")
    assert unread_public_names([package], [package, reader]) == ["A.unused"]
