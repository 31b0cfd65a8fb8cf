"""Only ``parse_pom`` and ``effective_pom`` construct a ``PomModel``.

A stdlib ``ast`` check over the package: a manifest model is built where it
is parsed, or where it is made effective (parent merge, ``${}``
interpolation and management fill, in one pass), and nowhere else. So no
second interpolation can grow back beside ``effective_pom``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvnlock"
BUILDERS = {("pom.py", "parse_pom"), ("pom.py", "effective_pom")}


def model_builders(source: str, filename: str) -> list[str]:
    """``file:function`` (or ``file:<module>``) of every ``PomModel(...)`` call, by line."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else owner)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "PomModel":
                    found.append((child.lineno, f"{filename}:{owner}"))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return [where for _, where in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_parse_and_effective_build_models(path):
    builders = model_builders(path.read_text(encoding="utf-8"), path.name)
    assert {tuple(where.split(":")) for where in builders} <= BUILDERS


def test_each_builder_builds_once():
    source = (PACKAGE / "pom.py").read_text(encoding="utf-8")
    assert model_builders(source, "pom.py") == ["pom.py:parse_pom", "pom.py:effective_pom"]


def test_checker_finds_every_call():
    source = (
        "from . import pom\n"
        "def interpolate(model):\n"
        "    def inner():\n"
        "        return PomModel(model.artifact_id)\n"
        "    return inner()\n"
        "class Copier:\n"
        "    def copy(self, model):\n"
        "        return pom.PomModel(model.artifact_id)\n"
        "DEFAULT = PomModel('x')\n"
        "def not_a_call():\n"
        "    return PomModel\n"
    )
    assert model_builders(source, "m.py") == ["m.py:interpolate", "m.py:Copier",
                                              "m.py:<module>"]
