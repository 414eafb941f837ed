"""Every name a package module imports is used in that module, and no module
reads another object's private attributes.

Parses the sources with ast only, so it runs without numpy.
"""

import ast
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
