"""Every module of the package uses every name it imports.

A stdlib ``ast`` check, so deleted code cannot leave its imports behind
without a linter being installed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvnlock"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name afterwards."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_reports_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import xml.etree.ElementTree as ET\n"
        "from .versions import compare_versions, max_version\n"
        "def f(x) -> ET.Element:\n"
        "    return max_version(x)\n"
    )
    assert unused_imports(source) == ["compare_versions (line 4)", "os (line 2)"]


def private_lockfile_imports(source: str) -> list[str]:
    """Names with a leading ``_`` imported from ``mvnlock.lockfile``, relatively or not."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, "lockfile"), (0, "mvnlock.lockfile"))
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "lockfile.py"], ids=lambda p: p.name)
def test_no_private_lockfile_names_imported(path):
    """The format's tables stay in ``lockfile.py``; other modules ask it, not copy it."""
    assert private_lockfile_imports(path.read_text(encoding="utf-8")) == []


def test_checker_reports_private_lockfile_names():
    source = (
        "from .lockfile import _ENVIRONMENT, ERROR\n"
        "from mvnlock.lockfile import _KINDS\n"
        "from .pom import _RANGE_CHARS\n"
        "from ..lockfile import _GAV\n"
    )
    assert private_lockfile_imports(source) == ["_ENVIRONMENT (line 1)", "_KINDS (line 2)"]
