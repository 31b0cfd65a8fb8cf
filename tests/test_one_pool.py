"""``project.Pool`` is the only code in the package that starts a thread.

A stdlib ``ast`` check: any other module that constructs ``threading.Thread``
(or a ``Thread`` imported from ``threading``), or imports ``concurrent.futures``
or ``queue``, fails it, so no command can open a second pool and run more
than ``--workers`` threads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvnlock"
POOL_MODULE = "project.py"
BANNED_MODULES = ("concurrent", "queue")


def _banned_module(name: str | None) -> bool:
    return name is not None and name.split(".")[0] in BANNED_MODULES


def thread_starts(source: str, filename: str) -> list[str]:
    """Every thread construction and pool-module import in the source, by line."""
    found = []
    thread_names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if _banned_module(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if _banned_module(node.module):
                found.append((node.lineno, f"from {node.module} import"))
            elif node.module == "threading":
                thread_names |= {a.asname or a.name for a in node.names if a.name == "Thread"}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "Thread"
                and isinstance(func.value, ast.Name) and func.value.id == "threading"):
            found.append((node.lineno, "threading.Thread()"))
        elif isinstance(func, ast.Name) and func.id in thread_names:
            found.append((node.lineno, f"{func.id}()"))
    return [f"{filename}:{line} {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != POOL_MODULE), ids=lambda p: p.name)
def test_only_the_pool_starts_threads(path):
    assert thread_starts(path.read_text(encoding="utf-8"), path.name) == []


def test_the_pool_is_the_one_exception():
    source = (PACKAGE / POOL_MODULE).read_text(encoding="utf-8")
    assert "class Pool:" in source
    assert {line.split(" ", 1)[1] for line in thread_starts(source, POOL_MODULE)} == {
        "import queue", "threading.Thread()"}


def test_checker_reports_every_kind_of_thread_start():
    source = (
        "import queue\n"
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from queue import SimpleQueue as Q\n"
        "import threading\n"
        "from threading import Lock, Thread as T\n"
        "def f(work):\n"
        "    threading.Thread(target=work).start()\n"
        "    T(target=work)\n"
        "    threading.Lock()\n"
        "    Lock()\n"
    )
    assert thread_starts(source, "m.py") == [
        "m.py:1 import queue",
        "m.py:2 import concurrent.futures",
        "m.py:3 from concurrent.futures import",
        "m.py:4 from queue import",
        "m.py:8 threading.Thread()",
        "m.py:9 T()",
    ]
